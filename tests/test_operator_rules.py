"""One rule per operator property, each defined once in `linalg` with one
tolerance: `require_finite`, `require_hermitian` and `require_psd`. Every
function that takes an operator refuses a non-finite entry, a non-Hermitian
matrix and an eigenvalue below -PSD_TOL times the largest (at least 1) in
the same words, with no numpy warning on the way, and every state that
`DensityOp` accepts runs through the entropies, distances and verifiers."""

import re
import warnings

import numpy as np
import pytest

from declab.entropy import (
    fidelity,
    generalized_fidelity,
    generalized_trace_distance,
    h2_cond,
    h_min_cond,
    purified_distance,
    trace_distance,
)
from declab.linalg import PSD_TOL, eig_hermitian, mpow, schatten_norm
from declab.states import ChoiChannel, DensityOp, random_channel
from declab.twirl import perm_twirl2_exact
from declab.verify import verify_cq_tpcp, verify_decoupling_theorem

MIXED = np.eye(4) / 4

# case: (the name its refusal gives, the operator's size, call with the operator)
OPERATOR_ARGUMENTS = {
    "DensityOp": ("density operator", 4, lambda m: DensityOp(m, (2, 2))),
    "ChoiChannel": ("Choi operator", 4, lambda m: ChoiChannel(m, 2, 2)),
    "mpow": ("operator", 4, lambda m: mpow(m, 0.5)),
    "eig_hermitian": ("operator", 4, eig_hermitian),
    "perm_twirl2_exact": ("twirl input", 16, lambda m: perm_twirl2_exact(m, 4)),
    "h_min_cond": ("h_min_cond state", 4, lambda m: h_min_cond(m, (2, 2))),
    "h2_cond": ("h2_cond state", 4, lambda m: h2_cond(m, (2, 2))),
    "h2_cond-optimized": ("h2_cond state", 4, lambda m: h2_cond(m, (2, 2), optimize=True)),
    "h2_cond-zeta_start": ("zeta_start", 4,
                           lambda m: h2_cond(np.eye(8) / 8, (2, 4), optimize=True, zeta_start=m)),
    "trace_distance": ("rho", 4, lambda m: trace_distance(m, MIXED)),
    "generalized_trace_distance": ("sigma", 4, lambda m: generalized_trace_distance(MIXED, m)),
    "fidelity": ("rho", 4, lambda m: fidelity(m, MIXED)),
    "generalized_fidelity": ("sigma", 4, lambda m: generalized_fidelity(MIXED, m)),
    "purified_distance": ("rho", 4, lambda m: purified_distance(m, MIXED)),
    "schatten_norm": ("operator", 4, lambda m: schatten_norm(m, 1)),
}
# the 1-norm is the sum of singular values of any finite matrix, so these take a skew one
ANY_FINITE = {"trace_distance", "generalized_trace_distance", "schatten_norm"}


def _spoiled(kind: str, n: int) -> np.ndarray:
    """pi on n levels with one bad feature: a NaN or an inf on the diagonal, or
    a skew part 0.1i times the strict upper triangle of ones."""
    mat = np.eye(n, dtype=complex) / n
    if kind == "skew":
        return mat + 0.1j * np.triu(np.ones((n, n)), 1)
    mat[1, 1] = {"nan": np.nan, "inf": np.inf}[kind]
    return mat


@pytest.mark.parametrize("kind", ["nan", "inf", "skew"])
@pytest.mark.parametrize("case", OPERATOR_ARGUMENTS)
def test_every_operator_argument_passes_the_one_rule(case, kind):
    # a NaN was once "not Hermitian", an inf a RuntimeWarning first, and a NaN
    # in schatten_norm(., 1) a LinAlgError from the SVD
    what, n, call = OPERATOR_ARGUMENTS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if kind == "skew" and case in ANY_FINITE:
            assert 0 < call(_spoiled(kind, n)) < np.inf
            return
        message = "is not Hermitian within tolerance" if kind == "skew" else "has a non-finite entry"
        with pytest.raises(ValueError, match=f"^{what} {message}$"):
            call(_spoiled(kind, n))


def test_every_state_that_density_op_accepts_runs_through():
    # |00><00| with -5e-11 on |01>: inside PSD_TOL, so a DensityOp, and once
    # refused by mpow, below the entropies and distances, at -1e-13
    rho = DensityOp(np.diag([1.0, -5e-11, 0.0, 0.0]), (2, 2))
    ch = random_channel(2, 2, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for optimize in (False, True):
            assert abs(h2_cond(rho.mat, rho.dims, optimize=optimize).value) < 1e-12
        assert abs(fidelity(rho.mat, rho.mat) - 1.0) < 1e-12
        assert purified_distance(rho.mat, rho.mat) < 1e-6
        assert verify_cq_tpcp(rho, ch).passed
        assert verify_decoupling_theorem(rho, ch, n_samples=20).passed


@pytest.mark.parametrize("case", ["DensityOp", "ChoiChannel", "mpow", "h2_cond-zeta_start",
                                  "fidelity", "generalized_fidelity", "purified_distance"])
def test_an_eigenvalue_past_psd_tol_is_refused_in_one_wording(case):
    what, _, call = OPERATOR_ARGUMENTS[case]
    with pytest.raises(ValueError, match=rf"^{what} is not PSD within tolerance: "
                                         rf"min eigenvalue -1\.000e-09$"):
        call(np.diag([1.0, -1e-9, 0.0, 0.0]))


@pytest.mark.parametrize("lam", [0.0, 1e-3, 1.0, 1e3, 1e6])
def test_psd_tolerance_scales_with_each_matrix_largest_eigenvalue_at_least_1(lam):
    # -1e-13 and -1e-12 lambda_max, mpow's old limits, lie inside the rule for every lambda_max
    for low in (-max(1e-12 * lam, 1e-13), -0.99 * PSD_TOL * max(1.0, lam)):
        assert np.isfinite(mpow(np.diag([lam, low]), 0.5)).all()
    # each matrix of a stack is held to its own scale, and the message names the refused one
    bad = -1.01 * PSD_TOL * max(1.0, lam)
    stack = np.stack([np.diag([1e6, -1e-5]), np.diag([lam, bad])])
    with pytest.raises(ValueError, match=f"min eigenvalue {re.escape(f'{bad:.3e}')}$"):
        mpow(stack, 0.5)
