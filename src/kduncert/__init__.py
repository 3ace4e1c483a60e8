"""Kirkwood-Dirac quasiprobabilities and the quantum/classical split of measurement uncertainty."""

from .core import (
    DensityMatrix,
    Povm,
    RankOnePvm,
    haar_random_unitary,
    partial_trace,
    random_density,
    random_povm,
    rank_one_pvm,
    tensor,
    trace_norm,
    validate_density,
    validate_povm,
)
from .errors import DimMismatchError, KdUncertError, ValidationError, WitnessNotFoundError
from .kdtable import (
    JohansenComponents,
    KdTable,
    johansen_components,
    kd_table,
    table_nonclassicality,
    table_nonreality,
)
from .optimize import (
    OptimizerConfig,
    SupremumResult,
    quantum_nonclassicality,
    quantum_nonreality,
    sup_over_pvm,
)
from .uncertainty import (
    Decomposition,
    Flavor,
    bound_asymmetry,
    coarse_grain,
    decompose,
    impurity_s,
    impurity_t,
    infimum_total,
    outcome_probs,
    s_entropy,
    t_entropy,
    total_uncertainty,
    uncertainty_relation_bound,
)
from .witness import (
    WeakValueTable,
    WitnessEntry,
    WitnessReport,
    contextuality_witness,
    disturbance_nonreality,
    quantum_via_weak_values,
    weak_values,
)

__version__ = "0.1.0"
