"""wignerlab: exact walk-sum trace moments, Dyck-path combinatorics and
seeded spectral-edge Monte Carlo for Wigner-type random matrices."""

__version__ = "0.1.0"

import os

# Before numpy loads OpenBLAS: an idle worker then sleeps after 2^20 cycles
# (under 1 ms) instead of 2^28 (about 0.1 s), after start-up and each threaded call.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

from .dyck import (
    DyckPath,
    PlaneTree,
    catalan,
    count_trees_root_degree,
    count_trees_with_exit_degree_eq,
    count_trees_with_exit_degree_ge,
    dyck_to_tree,
    enumerate_dyck,
    excursion_functional,
    exit_degree_tail_bound,
    mean_max_height,
    tree_to_dyck,
)
from .walks import (
    Walk,
    analyze,
    enumerate_even_walks,
    reduce_walk,
    verify_vertex_ledger,
    verify_cell_bounds,
)
from .classes import (
    MuSignature,
    NuSignature,
    classify_mu,
    classify_nu,
    exact_class_size,
    mu_bound,
    psi_bound,
    ss_bound,
    weight_bound_check,
)
from .series import Series, catalan_gf, n2_count, n2_series, nm_count
from .laws import GaussianLaw, GoeLaw, PowerTailLaw, RademacherLaw, ThreePointLaw
from .moments import (
    MomentSpec,
    TruncationSpec,
    brute_force_trace_moment,
    dilute_spec,
    exact_trace_moment,
    semicircle_moment,
    truncated_moments,
    truncated_spec,
    wigner_spec,
    z_decomposition,
)
from .mc import (
    EnsembleConfig,
    sample_matrix,
    sample_stats,
    spectral_stats,
    tail_curve,
    truncation_event_rate,
    universality_compare,
    wilson_interval,
)
