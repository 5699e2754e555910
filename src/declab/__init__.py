"""declab: numerical verification of decoupling identities and bounds.

Exact 2-norm decoupling identities are checked against brute-force group
averages, and the 1-norm decoupling theorems against entropy right sides
computed from a built-in min-entropy SDP, all at desk-scale dimensions.
"""

from ._groupavg import ElementSet
from .entropy import (
    EntropyResult,
    fidelity,
    generalized_fidelity,
    generalized_trace_distance,
    h2_cond,
    h_min_cond,
    purified_distance,
    trace_distance,
)
from .linalg import (
    eig_hermitian,
    mpow,
    partial_trace,
    permute_systems,
    schatten_norm,
    swap_operator,
    tensor,
)
from .states import (
    ChoiChannel,
    DensityOp,
    apply_channel_mat,
    classical_correlated,
    cq_decoupling_state,
    is_cq,
    max_entangled,
    random_channel,
    random_cq,
    random_density,
)
from .symgroup import (
    affine_family,
    all_perms,
    char_closed_forms,
    chi_r,
    classical_diamond_distance,
    hook_dimension,
    mn_character,
    pairwise_dependence,
    perm_operator,
)
from .twirl import (
    CommutantBasis,
    clifford_1q,
    commutant_basis,
    commutant_dim_brute,
    design_epsilon_bound,
    haar_samples,
    haar_twirl2_exact,
    haar_twirl2_mc,
    perm_twirl2_brute,
    perm_twirl2_exact,
)
from .verify import VerificationReport

__version__ = "0.1.0"
