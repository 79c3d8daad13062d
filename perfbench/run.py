#!/usr/bin/env python3
"""equigraph benchmark: run one workload, check every answer, print its metrics.

    python3 perfbench/run.py --workload certify-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all    # the four workloads, one after another

Run from the repository root.  One client sends requests in a closed loop:
each request is an in-process call to `equigraph.cli.main(argv)` with stdout
captured, which is the CLI path minus interpreter start-up.  A pass sends the
workload's fixed request list once, on freshly relabeled input files.  Passes
repeat for `--seconds`; every answer is checked against `oracle` after its pass.

`--trace 0` prints the end-to-end metrics.  `--trace 1` makes one untimed pass,
then spends half the time on passes traced by `tracer` and half on untraced
passes, and prints the per-layer metrics.  Human-readable lines come first;
the last line is one JSON object with the keys correct, attempted, failed and
metrics.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("certify-large", "construct-io", "small-claims", "exact-trees")
SETUP_PROBES = 6  # fresh processes timed for setup_s, besides the run's own process
MIN_PASSES = 5  # per untraced run; also fixes which percentile latency_tail_ms reports
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
EXIT_DEVIATION = 3

END_TO_END_UNITS = {
    "batch_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "ok_frac": "ratio", "peak_rss_mb": "MB", "setup_s": "s",
}


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def pin_blas() -> int:
    """Cap BLAS threads at the CPUs this process may use; must precede importing numpy."""
    n = usable_cpus()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def import_program():
    """Import equigraph from this checkout's src/, never from an installed copy."""
    if not os.path.isdir(os.path.join(SRC, "equigraph")):
        raise SystemExit(f"run.py: no equigraph sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import equigraph.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"run.py: imported equigraph from {cli.__file__}, not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# one request
# ---------------------------------------------------------------------------

def send(cli, req, argv):
    """Run one request; returns (exit code, captured output or result, exception)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if req.call is not None:
                return 0, req.call(), None
            return cli.main(argv), out.getvalue(), None
    except SystemExit as exc:  # argparse usage errors
        return exc.code, out.getvalue(), None
    except Exception as exc:  # any crash is a failed request, never a crashed benchmark
        return None, out.getvalue(), exc


def failure(req, pass_no, code, output, exc) -> str | None:
    """Why a request failed, or None: it raised, exited unexpectedly, reported a
    deviation, or disagrees with the independent reference."""
    if exc is not None:
        return f"raised {type(exc).__name__}"
    if code == EXIT_DEVIATION:
        return "deviation"
    if code != 0:
        return f"exit {code}"
    try:
        answer = output if req.call is not None else json.loads(output)
        reason = req.check(answer, pass_no)
    except (ValueError, KeyError, IndexError, TypeError) as err:
        reason = f"unreadable report ({type(err).__name__})"
    return reason and f"oracle: {reason}"


# ---------------------------------------------------------------------------
# set-up: import plus warm-up requests, in a fresh process
# ---------------------------------------------------------------------------

def warm_up(cli, workdir: str) -> float:
    """Import-free part of setup: four `spectra` requests on 256-vertex graphs.
    The first threaded eigensolves of a process can take ~0.5 s each, so
    timing starts only after this."""
    import numpy as np
    import oracle
    rng = np.random.default_rng(0)
    G = oracle.gnm(rng, 256, 1024)
    paths = []
    for i in range(4):
        path = os.path.join(workdir, f"warm{i}.el")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(oracle.encode_edgelist(oracle.relabel(G, rng)))
        paths.append(path)
    t0 = time.perf_counter()
    for path in paths:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["spectra", "--in", path, "--matrix", "l"]) != 0:
                raise SystemExit("run.py: warm-up request failed")
    return time.perf_counter() - t0


def setup(workdir: str):
    """(cli module, set-up seconds, host speed scale measured right after)."""
    t0 = time.perf_counter()
    cli = import_program()
    t_import = time.perf_counter() - t0
    seconds = t_import + warm_up(cli, workdir)
    return cli, seconds, CAL_REF_S / calibrate()


def probe_setup(n: int) -> list[tuple[float, float]]:
    out = []
    for _ in range(n):
        res = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe"], cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(res.stdout.strip().splitlines()[-1])
        out.append((probe["setup_s"], probe["scale"]))
    return out


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

# End-to-end times are scaled to a host on which `calibrate` takes this long.
CAL_REF_S = 0.02
CAL_SAMPLES = 3


@functools.cache
def _calibration_matrix():
    import numpy as np
    r = np.random.default_rng(0).random((192, 192))
    return r + r.T


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, big-integer and BLAS work: the
    median of CAL_SAMPLES timings, so that one preempted timing does not skew it.

    The shared virtual machines this benchmark runs on change speed by up to
    30 % within minutes.  Timing this loop around every pass and scaling the
    pass by CAL_REF_S / calibrate() removes most of that drift.  Nothing here
    calls equigraph, so a change to the program cannot move it.
    """
    import numpy as np
    M = _calibration_matrix()
    samples = []
    for _ in range(CAL_SAMPLES):
        t0 = time.perf_counter()
        frozenset({(i % 251, i // 251) for i in range(30000)})
        x = 3 ** 300
        for i in range(1, 2000):
            x = (x * 7919 + i) // 3
        np.linalg.eigvalsh(M)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def provenance(seed: int, threads: int) -> dict:
    import numpy as np
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown: not a git checkout"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    return {
        "seed": seed, "nproc": os.cpu_count(), "cpus_usable": usable_cpus(),
        "blas_vendor": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads, "numpy": np.__version__, "python": platform.python_version(),
        "machine": platform.machine(), "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Run:
    """One workload's passes in this process, with per-kind failure counts."""

    def __init__(self, cli, reqs, seed: int, workdir: str):
        self.cli, self.reqs, self.seed, self.workdir = cli, reqs, seed, workdir
        self.pass_no = 0
        self.failures: dict[str, dict] = {}
        self.silent_wrong = 0  # exit 0 and an answer the reference rejects

    def one_pass(self, tracer=None) -> tuple[float, list[float]]:
        import workloads
        reqs = [req.at(self.pass_no) for req in self.reqs]
        argvs = workloads.materialise(reqs, self.seed, self.pass_no, self.workdir)
        # traced passes run on the tracer's clock, which stops while it reads counters
        clock = tracer.now if tracer else time.perf_counter
        results, lat = [], []
        t_pass = clock()
        for i, (req, argv) in enumerate(zip(reqs, argvs)):
            t0 = clock()
            if tracer is None:
                results.append(send(self.cli, req, argv))
            else:
                tracer.request = i
                root = tracer.open("cli", "request")
                try:
                    results.append(send(self.cli, req, argv))
                finally:
                    tracer.close(root)
            lat.append(clock() - t0)
        wall = clock() - t_pass
        for req, (code, output, exc) in zip(reqs, results):
            reason = failure(req, self.pass_no, code, output, exc)
            rec = self.failures.setdefault(req.kind, {"attempted": 0, "failed": 0, "reasons": {}})
            rec["attempted"] += 1
            if reason:
                rec["failed"] += 1
                rec["reasons"][reason] = rec["reasons"].get(reason, 0) + 1
                self.silent_wrong += reason.startswith("oracle:")
        self.pass_no += 1
        return wall, lat

    def passes(self, seconds: float, min_passes: int, tracer=None):
        """Passes until `seconds` are used up (a pass that would overrun is not
        started), and at least `min_passes`.  Returns per pass: wall time,
        request latencies, host speed scale (from `calibrate` before and
        after it) and, when traced, its spans."""
        walls, lats, scales, spans = [], [], [], []
        t_start = time.perf_counter()
        calibrate()  # the first calibration after building the workload reads slow
        cal = calibrate()
        while True:
            used = time.perf_counter() - t_start
            if len(walls) >= min_passes and used + used / len(walls) > seconds:
                break
            first = len(tracer.spans) if tracer else 0
            wall, lat = self.one_pass(tracer)
            cal_after = calibrate()
            walls.append(wall)
            lats.append(lat)
            scales.append(2 * CAL_REF_S / (cal + cal_after))
            cal = cal_after
            if tracer:
                spans.append(tracer.spans[first:])
        return walls, lats, scales, spans

    @property
    def attempted(self) -> int:
        return sum(r["attempted"] for r in self.failures.values())

    @property
    def failed(self) -> int:
        return sum(r["failed"] for r in self.failures.values())


def tail_percentile(requests_per_pass: int) -> float:
    """Highest listed percentile with at least 10 samples beyond it in MIN_PASSES
    passes.  Fixed per workload, so a faster program (more passes) does not
    change which percentile is reported."""
    n = requests_per_pass * MIN_PASSES
    return next((q for q in TAIL_PERCENTILES if n * (1 - q / 100) >= 10), 50.0)


def end_to_end(run: Run, walls, lats, scales, setup_samples) -> dict:
    """The six end-to-end metrics; times are scaled to the reference host speed."""
    import numpy as np
    lat_ms = [1000.0 * x * scale for lat, scale in zip(lats, scales) for x in lat]
    q = tail_percentile(len(run.reqs))
    by_kind: dict[str, list[float]] = {}
    for i, x in enumerate(lat_ms):
        by_kind.setdefault(run.reqs[i % len(run.reqs)].kind, []).append(x)
    print(json.dumps({"latency": {"samples": len(lat_ms), "tail_percentile": q,
                                  "median_ms_by_kind": {k: statistics.median(v) for k, v in by_kind.items()}}}))
    print(json.dumps({"unscaled": {"pass_s": walls, "host_scale": scales,
                                   "latency_p50_ms": 1000.0 * statistics.median(x for lat in lats for x in lat),
                                   "setup_s": [s for s, _ in setup_samples]}}))
    return {
        "batch_s": statistics.median(w * s for w, s in zip(walls, scales)),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": float(np.percentile(lat_ms, q)),
        "ok_frac": 1.0 - run.failed / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(s * scale for s, scale in setup_samples),
    }


def per_layer(traced_walls, traced_spans) -> tuple[dict, dict]:
    """Per-layer metrics and the per-layer accounting of the traced passes."""
    import tracer
    per_pass = [tracer.layer_metrics(spans) for spans in traced_spans]
    metrics = {}
    for key in per_pass[0]:
        # times vary run to run, so take their median; counters repeat exactly, so take the first pass
        timed = unit_of(key) == "ms"
        metrics[key] = (statistics.median(p[key] for p in per_pass) if timed else per_pass[0][key], unit_of(key))
    traced = statistics.median(traced_walls)
    metrics["trace.accounted_frac"] = (statistics.median(
        tracer.roots_ms(s) / (1000.0 * w) for s, w in zip(traced_spans, traced_walls)), "ratio")
    totals = {layer: statistics.median(tracer.layer_totals(s)[layer] for s in traced_spans)
              for layer in tracer.LAYERS}
    return metrics, {"layer_self_ms": totals, "traced_batch_ms": 1000.0 * traced}


def unit_of(key: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if key.endswith(("_ms", ".ms")):
        return "ms"
    if key.endswith("_bytes"):
        return "bytes"
    if key.endswith("_frac"):
        return "ratio"
    if key.endswith("_n3"):
        return "n3"
    if key.endswith("_max_n"):
        return "vertices"
    return "count"


def run_all(args) -> int:
    """Every workload, each in its own fresh process; the last line merges their
    results, with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                             cwd=ROOT, capture_output=True, text=True, check=True)
        *lines, last = res.stdout.strip().splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    threads = pin_blas()
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        cli, setup_s, setup_scale = setup(workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "scale": setup_scale}))
            return 0
        import workloads
        reqs = workloads.build(args.workload, args.seed)
        run = Run(cli, reqs, args.seed, workdir)
        print(json.dumps({"workload": args.workload, "requests_per_pass": len(reqs),
                          "provenance": provenance(args.seed, threads)}))
        if args.trace:
            import tracer
            # One untimed pass absorbs first-call costs.  Traced passes follow at a
            # fixed pass index, so their counters repeat exactly for a seed.
            run.one_pass()
            with tracer.Tracer() as tr:
                t_walls, _, _, spans = run.passes(args.seconds / 2, 2, tr)
            metrics, accounting = per_layer(t_walls, spans)
            print(json.dumps(accounting))
            # Live spans would slow the untraced passes through the garbage collector.
            del tr, spans
            gc.collect()
            walls, _, _, _ = run.passes(args.seconds / 2, 2)
            metrics["trace.overhead_frac"] = (statistics.median(t_walls) / statistics.median(walls) - 1.0, "ratio")
        else:
            walls, lats, scales, _ = run.passes(args.seconds, MIN_PASSES)
            setup_samples = [(setup_s, setup_scale)] + probe_setup(SETUP_PROBES)
            e2e = end_to_end(run, walls, lats, scales, setup_samples)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
        print(json.dumps({"failures_by_kind": {k: v for k, v in run.failures.items() if v["failed"]}}))
        for name, (value, unit) in metrics.items():
            print(f"{args.workload:14s} {name:34s} {value:14.6g} {unit}")
        print(json.dumps({
            "correct": run.silent_wrong == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


if __name__ == "__main__":
    sys.exit(main())
