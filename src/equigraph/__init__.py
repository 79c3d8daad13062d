"""equigraph: graph spectra, graph energies, and equienergetic families.

Core objects: an immutable `Graph`, spectra of its adjacency / Laplacian /
signless Laplacian matrices, the three associated energies, spanning-tree
counts by independent routes, closed-form spectrum predictors for extended
double covers and k-fold graphs, and TheoremReport-producing checkers that
certify each claimed identity numerically.
"""

from .errors import (
    EquigraphError,
    ParameterError,
    ParseError,
    ResourceLimitError,
    ValidationError,
)
from .graphs import (
    Graph,
    cartesian_product,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    double_graph,
    empty,
    extended_double_cover,
    hypercube,
    is_bipartite,
    is_connected,
    iterated_edc,
    join,
    k_fold,
    kronecker_product,
    line_graph,
    path,
)
from .spectra import (
    EnergyValue,
    Spectrum,
    edc_spanning_trees_formula,
    energy,
    is_laplacian_integral,
    laplacian_energy,
    matrix_of,
    spanning_trees_eigen,
    spanning_trees_exact,
    spectra_equal,
    spectral_distance,
    spectrum_of,
)
from .predict import (
    predict_edc_a_spectrum,
    predict_edc_l_spectrum,
    predict_iterated_edc_l_spectrum,
    predict_iterated_edc_l_spectrum_bipartite,
    predict_kfold_a_spectrum,
    predict_kfold_l_spectrum,
)
from .theorems import (
    FamilySpec,
    TheoremReport,
    check_le_doubling,
    family_cartesian,
    family_join_edc,
    family_join_kfold,
    family_mixed,
    kfold_le_formula,
    run_check,
)
from .graphio import GraphDocument, emit_graph, parse_graph
from .limits import vertex_cap

__version__ = "0.1.0"
