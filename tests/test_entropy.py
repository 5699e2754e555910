import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declab import entropy, suites, verify
from declab.entropy import (
    fidelity,
    generalized_fidelity,
    generalized_trace_distance,
    h2_cond,
    h_min_cond,
    purified_distance,
    trace_distance,
)
from declab.linalg import mpow, schatten_norm, tensor
from declab.states import DensityOp, max_entangled, random_cq, random_density


def _assert_hmin_bracket(mat, dims, exact):
    res = h_min_cond(mat, dims)
    assert res.meta["status"] == "converged"
    assert res.value <= exact + 1e-12
    assert exact <= res.meta["hmin_upper"] + 1e-12
    return res


def test_h_min_cond_product():
    rho_a = random_density(3, seed=0).mat
    sig_b = random_density(2, seed=1).mat
    exact = -np.log2(np.linalg.eigvalsh(rho_a)[-1])     # H_min(A) of the product
    res = _assert_hmin_bracket(tensor(rho_a, sig_b), (3, 2), exact)
    assert abs(res.value - exact) < 1e-8
    assert np.isclose(np.trace(res.optimizer).real, 1.0)


@pytest.mark.parametrize("d", [2, 3])
def test_h_min_cond_max_entangled(d):
    phi = max_entangled(d)
    res = _assert_hmin_bracket(phi.mat, phi.dims, -np.log2(d))
    assert abs(res.value + np.log2(d)) < 1e-8
    assert res.meta["primal_slack"] > -1e-8


@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_h_min_cond_helstrom_closed_form(d_b):
    # classical bit A: 2^-H_min is the Helstrom guessing probability
    # (tr rho + ||rho_0 - rho_1||_1) / 2 of the sub-normalized blocks
    rho = 0.7 * random_cq((2, d_b), seed=20 + d_b).mat
    blocks = rho.reshape(2, d_b, 2, d_b)
    p_guess = (np.trace(rho).real + trace_distance(blocks[0, :, 0], blocks[1, :, 1])) / 2
    _assert_hmin_bracket(rho, (2, d_b), -np.log2(p_guess))


@pytest.mark.parametrize("d_a", [2, 3, 4])
@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_h_min_cond_classical_closed_form(d_a, d_b):
    # diagonal rho: 2^-H_min = sum_b max_a p_ab
    p = np.random.default_rng(10 * d_a + d_b).dirichlet(np.ones(d_a * d_b)) * 0.6
    exact = -np.log2(p.reshape(d_a, d_b).max(axis=0).sum())
    _assert_hmin_bracket(np.diag(p).astype(complex), (d_a, d_b), exact)


def test_sdp_conditional_dual_witness():
    cases = [(0.8 * random_density(d_a * d_b, rank=rank, seed=40 + rank).mat, d_a, d_b)
             for d_a, d_b, rank in [(2, 2, 1), (3, 2, 6), (2, 4, 3), (4, 3, 12)]]
    cases += [(random_cq((4, 2), seed=12).mat, 4, 2), (random_cq((3, 2), seed=2).mat, 3, 2)]
    for rho, d_a, d_b in cases:
        tr_z, z, y, _ = entropy._sdp_conditional(rho, d_a, d_b)
        assert np.array_equal(y, y.conj().T)
        assert np.linalg.eigvalsh(y)[0] >= -1e-12
        tr_a_y = np.trace(y.reshape(d_a, d_b, d_a, d_b), axis1=0, axis2=2)
        assert np.linalg.eigvalsh(tr_a_y)[-1] <= 1 + 1e-12
        res = h_min_cond(rho, (d_a, d_b))
        assert res.meta["status"] == "converged"
        assert res.value == -np.log2(tr_z)
        assert abs(-np.log2(np.trace(rho @ y).real) - res.meta["hmin_upper"]) <= 1e-12
        assert np.trace(rho @ y).real <= tr_z


def test_h_min_cond_subnormalized():
    rho = random_density(6, seed=3, dims=(3, 2))
    scaled = DensityOp(0.5 * rho.mat, rho.dims)
    full = h_min_cond(rho.mat, rho.dims).value
    half = h_min_cond(scaled.mat, scaled.dims).value
    assert abs(half - full - 1.0) < 1e-7   # scaling by 1/2 adds one bit


@pytest.mark.parametrize("c", [1e-3, 1e-9, 1e-14])
def test_h_min_cond_scale_free(c):
    # H_min(c rho) = H_min(rho) - log2 c; the 1e-13 slack is the round-off of
    # rescaling and of the log2 c shift, far below the bracket width
    rho = random_density(6, seed=3, dims=(3, 2))
    ref = h_min_cond(rho.mat, rho.dims)
    res = h_min_cond(c * rho.mat, rho.dims)
    assert res.meta["status"] == "converged"
    assert ref.value - 1e-13 <= res.value + np.log2(c) <= ref.meta["hmin_upper"] + 1e-13


def _closed_form_state(kind, d_a, d_b, rank, seed):
    """A trace-1 state with a closed-form 2^-H_min; rank <= d_B leaves rho_B singular."""
    rng = np.random.default_rng(seed)
    if kind == "pure":
        # Schmidt rank k: 2^-H_min = (sum_i sqrt(p_i))^2 over the Schmidt spectrum
        k = min(rank, d_a, d_b)
        m = ((rng.normal(size=(d_a, k)) + 1j * rng.normal(size=(d_a, k)))
             @ (rng.normal(size=(k, d_b)) + 1j * rng.normal(size=(k, d_b))))
        psi = (m / np.linalg.norm(m)).reshape(-1)
        s = np.linalg.svd(psi.reshape(d_a, d_b), compute_uv=False)
        return np.outer(psi, psi.conj()), s.sum() ** 2
    if kind == "product":
        # rho_A (x) sigma_B: 2^-H_min = lambda_max(rho_A)
        rho_a = random_density(d_a, rank=min(rank, d_a), seed=seed).mat
        sig_b = random_density(d_b, rank=min(rank, d_b), seed=seed + 1).mat
        return tensor(rho_a, sig_b), np.linalg.eigvalsh(rho_a)[-1]
    # diagonal, on the first `rank` values of B: 2^-H_min = sum_b max_a p_ab
    p = np.zeros((d_a, d_b))
    p[:, :min(rank, d_b)] = rng.dirichlet(np.ones(d_a * min(rank, d_b))).reshape(d_a, -1)
    return np.diag(p.reshape(-1)).astype(complex), p.max(axis=0).sum()


@given(kind=st.sampled_from(["pure", "product", "diagonal"]),
       d_a=st.integers(2, 4), d_b=st.integers(2, 4), rank=st.integers(1, 4),
       log_c=st.floats(-12, 0), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_h_min_cond_edge_inputs(kind, d_a, d_b, rank, log_c, seed):
    rho, p_guess = _closed_form_state(kind, d_a, d_b, rank, seed)
    c = 10.0 ** log_c
    ref = h_min_cond(rho, (d_a, d_b))
    res = h_min_cond(c * rho, (d_a, d_b))
    assert ref.meta["status"] == res.meta["status"] == "converged"
    exact = -np.log2(p_guess)
    assert ref.value - 1e-12 <= exact <= ref.meta["hmin_upper"] + 1e-12
    assert res.value - 1e-12 <= exact - np.log2(c) <= res.meta["hmin_upper"] + 1e-12
    assert ref.value - 1e-13 <= res.value + np.log2(c) <= ref.meta["hmin_upper"] + 1e-13


@pytest.mark.parametrize("kind", ["pure", "product", "diagonal"])
@pytest.mark.parametrize("d_a, d_b", [(8, 2), (2, 8), (5, 3), (8, 8)])
def test_h_min_cond_edge_inputs_up_to_8(kind, d_a, d_b):
    rho, p_guess = _closed_form_state(kind, d_a, d_b, 2, 10 * d_a + d_b)
    _assert_hmin_bracket(rho, (d_a, d_b), -np.log2(p_guess))


def _failing(*args, **kwargs):
    raise np.linalg.LinAlgError("forced failure")


@pytest.mark.parametrize("routine", ["cholesky", "inv"])
def test_failed_hmin_solve_is_never_converged(monkeypatch, routine):
    # every guard or every inverse fails: the solve must end "wide" with a
    # bracket that still holds the closed form, and the record built on it fails
    rho, p_guess = _closed_form_state("diagonal", 4, 2, 2, 7)
    state = DensityOp(rho, (4, 2))
    assert verify.verify_cq_hash(state, 2, 2).passed
    with monkeypatch.context() as m:
        m.setattr(np.linalg, routine, _failing)
        res = h_min_cond(rho, (4, 2))
        rep = verify.verify_cq_hash(state, 2, 2)
    assert res.meta["status"] == "wide"
    assert res.value <= -np.log2(p_guess) <= res.meta["hmin_upper"]
    assert not rep.passed


def test_h2_cond_product_uniform():
    rho_b = random_density(3, seed=4).mat
    rho = tensor(np.eye(4) / 4, rho_b)
    res = h2_cond(rho, (4, 3))
    assert abs(res.value - 2.0) < 1e-10
    assert res.meta is None


def test_h2_cond_max_entangled():
    phi = max_entangled(2)
    res = h2_cond(phi.mat, phi.dims)
    assert abs(res.value + 1.0) < 1e-10


def test_h2_cond_support_violation():
    rho = random_density(4, seed=5, dims=(2, 2))
    with pytest.raises(ValueError, match="^support of zeta_start"):
        h2_cond(rho.mat, rho.dims, optimize=True, zeta_start=np.diag([1.0, 0.0]))


@pytest.mark.parametrize("kind", ["nan", "skew"])
def test_h2_cond_refuses_non_finite_or_non_hermitian_zeta_start(kind):
    rho = random_density(4, seed=5, dims=(2, 2))
    zeta = np.array([[0.5, 0.1j], [0.1j, 0.5]]) if kind == "skew" else np.diag([np.nan, 1.0])
    message = "is not Hermitian" if kind == "skew" else "has a non-finite entry"
    with pytest.raises(ValueError, match=f"^zeta_start {message}"):
        h2_cond(rho.mat, rho.dims, optimize=True, zeta_start=zeta)


def test_h2_cond_takes_no_sigma():
    # sigma is the marginal or optimized; optimize is keyword-only, so no
    # positional third argument can be read as a sigma
    assert "sigma" not in inspect.signature(h2_cond).parameters
    rho = random_density(6, seed=3, dims=(3, 2))
    with pytest.raises(TypeError):
        h2_cond(rho.mat, rho.dims, True)


@pytest.mark.parametrize("entropy_of", [h_min_cond, h2_cond])
def test_zero_operator_is_refused(entropy_of):
    # refused up front, before any nan from normalizing by a zero trace
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="of a zero operator is undefined"):
            entropy_of(np.zeros((4, 4)), (2, 2))


ENTROPIES = {
    "h_min_cond": h_min_cond,
    "h2_cond": h2_cond,
    "h2_cond optimized": lambda mat, dims: h2_cond(mat, dims, optimize=True),
}
DISTANCES = {fn.__name__: fn for fn in (trace_distance, generalized_trace_distance, fidelity,
                                        generalized_fidelity, purified_distance)}


def _spoiled(kind):
    """A valid state with one bad feature: a nan or an inf on the diagonal,
    or a skew part 0.1i times the strict upper triangle of ones."""
    mat = random_density(6, seed=4, dims=(3, 2)).mat.copy()
    if kind == "skew":
        return mat + 0.1j * np.triu(np.ones((6, 6)), 1)
    mat[2, 2] = {"nan": np.nan, "inf": np.inf}[kind]
    return mat


@pytest.mark.parametrize("kind", ["nan", "inf", "skew"])
@pytest.mark.parametrize("name", list(ENTROPIES))
def test_entropies_refuse_non_finite_or_non_hermitian_input(name, kind):
    # a value, not an exception, came back for the skew input before these checks
    message = "not Hermitian" if kind == "skew" else "non-finite"
    with pytest.raises(ValueError, match=f"^{name.split()[0]} state .*{message}"):
        ENTROPIES[name](_spoiled(kind), (3, 2))


@pytest.mark.parametrize("kind", ["nan", "inf", "skew"])
@pytest.mark.parametrize("which", ["rho", "sigma"])
@pytest.mark.parametrize("name", list(DISTANCES))
def test_distances_refuse_non_finite_input(name, which, kind):
    # refused before the SVD or eigensolve, which raised LinAlgError on nan;
    # a skew argument is refused by name before mpow, except by the trace
    # distances, whose SVD is defined for it
    good = random_density(6, seed=5).mat
    args = {"rho": good, "sigma": good, which: _spoiled(kind)}
    if kind == "skew" and name.endswith("trace_distance"):
        assert DISTANCES[name](args["rho"], args["sigma"]) > 0
        return
    message = "is not Hermitian within tolerance" if kind == "skew" else "has a non-finite entry"
    with pytest.raises(ValueError, match=f"^{which} {message}"):
        DISTANCES[name](args["rho"], args["sigma"])


@given(kind=st.sampled_from(["pure", "product", "diagonal"]),
       d_a=st.integers(2, 4), d_b=st.integers(2, 4), rank=st.integers(1, 4),
       log_c=st.floats(-300, 0), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_entropies_scale_free_down_to_1e_300(kind, d_a, d_b, rank, log_c, seed):
    # H(c rho) + log2 c = H(rho): every entropy runs on rho / tr rho; H2 once
    # squared entries of order c, which returned inf from c = 1e-200
    rho, _ = _closed_form_state(kind, d_a, d_b, rank, seed)
    c = 10.0 ** log_c
    for name, entropy_of in ENTROPIES.items():
        ref = entropy_of(rho, (d_a, d_b)).value
        assert abs(entropy_of(c * rho, (d_a, d_b)).value + np.log2(c) - ref) <= 1e-9, name


def _h2_at(mat, dims, sigma):
    """H2 of mat scored at sigma / tr sigma, as h2_cond scores each start."""
    scale = float(np.trace(mat).real)
    sigma = sigma / np.trace(sigma).real
    return float(-np.log2(entropy._h2_value(mat / scale, dims, sigma))) - math.log2(scale)


def test_h2_monotone_and_min_entropy_bound():
    for k in range(15):
        rho = random_density(6, seed=50 + k, dims=(3, 2))
        res = h_min_cond(rho.mat, rho.dims)
        fixed = h2_cond(rho.mat, rho.dims).value
        opt = h2_cond(rho.mat, rho.dims, optimize=True,
                      zeta_start=res.optimizer).value
        assert fixed <= opt + 1e-9
        assert res.value <= opt + 1e-8


def _assert_h2_bracket(mat, dims, exact):
    res = h2_cond(mat, dims, optimize=True)
    assert res.meta["status"] == "converged"
    assert res.value - 1e-12 <= exact <= res.meta["h2_upper"] + 1e-12


@pytest.mark.parametrize("dims", [(2, 3), (2, 4), (3, 4), (4, 2)])
def test_h2_optimized_pure_state_closed_form(dims):
    # sandwiched duality with beta = 2/3: H2(A|B) = -3 log2 tr rho_A^(2/3);
    # rho_B is singular whenever d_A < d_B
    d_a, d_b = dims
    rng = np.random.default_rng(d_a * 10 + d_b)
    psi = rng.normal(size=d_a * d_b) + 1j * rng.normal(size=d_a * d_b)
    psi /= np.linalg.norm(psi)
    p = np.linalg.svd(psi.reshape(d_a, d_b), compute_uv=False) ** 2   # Schmidt spectrum
    _assert_h2_bracket(np.outer(psi, psi.conj()), dims, -3 * np.log2(np.sum(p ** (2 / 3))))


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 4), (4, 3)])
def test_h2_optimized_diagonal_closed_form(dims):
    # diagonal rho: the optimum is sigma_b ~ sqrt(sum_a p_ab^2)
    d_a, d_b = dims
    p = np.random.default_rng(d_a + d_b).dirichlet(np.ones(d_a * d_b)) * 0.7
    q = (np.sum(np.sqrt((p.reshape(d_a, d_b) ** 2).sum(axis=0)))) ** 2 / p.sum()
    _assert_h2_bracket(np.diag(p).astype(complex), dims, -np.log2(q))


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (4, 2)])
def test_h2_optimized_product_closed_form(dims):
    # rho_A (x) rho_B with tr rho_B = 1: the optimum is tr rho_A^2 / tr rho_A
    d_a, d_b = dims
    rho_a = 0.6 * random_density(d_a, seed=d_a).mat
    rho_b = random_density(d_b, seed=10 + d_b).mat
    q = np.trace(rho_a @ rho_a).real / np.trace(rho_a).real
    _assert_h2_bracket(tensor(rho_a, rho_b), dims, -np.log2(q))


def _h2_closed_form(kind, rho, d_a, d_b):
    """H2(A|B) of a trace-1 state from _closed_form_state."""
    if kind == "diagonal":
        p = np.diag(rho).real.reshape(d_a, d_b)
        return -2 * np.log2(np.sqrt((p ** 2).sum(axis=0)).sum())
    rho_a = np.trace(rho.reshape(d_a, d_b, d_a, d_b), axis1=1, axis2=3)
    if kind == "pure":
        p = np.clip(np.linalg.eigvalsh(rho_a), 0.0, None)
        return -3 * np.log2(np.sum(p ** (2 / 3)))
    return -np.log2(np.trace(rho_a @ rho_a).real)


@given(kind=st.sampled_from(["pure", "product", "diagonal"]),
       d_a=st.integers(2, 4), d_b=st.integers(2, 4), rank=st.integers(1, 4),
       log_c=st.floats(-12, 0), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_h2_optimized_edge_inputs(kind, d_a, d_b, rank, log_c, seed):
    rho, _ = _closed_form_state(kind, d_a, d_b, rank, seed)
    c = 10.0 ** log_c
    res = h2_cond(c * rho, (d_a, d_b), optimize=True)
    assert res.meta["status"] == "converged"
    exact = _h2_closed_form(kind, rho, d_a, d_b) - np.log2(c)
    assert res.value - 1e-9 <= exact <= res.meta["h2_upper"] + 1e-9


@pytest.mark.parametrize("kind", ["pure", "product", "diagonal"])
@pytest.mark.parametrize("d_a, d_b", [(8, 2), (2, 8), (5, 3), (8, 8)])
def test_h2_optimized_edge_inputs_up_to_8(kind, d_a, d_b):
    rho, _ = _closed_form_state(kind, d_a, d_b, 2, 10 * d_a + d_b)
    res = h2_cond(rho, (d_a, d_b), optimize=True)
    assert res.meta["status"] == "converged"
    exact = _h2_closed_form(kind, rho, d_a, d_b)
    assert res.value - 1e-9 <= exact <= res.meta["h2_upper"] + 1e-9


def test_h2_optimized_never_below_starts_and_deterministic():
    for k in range(6):
        rng = np.random.default_rng(300 + k)
        d_a, d_b = (int(x) for x in rng.integers(2, 5, size=2))
        rho = random_density(d_a * d_b, rank=int(rng.integers(1, d_a * d_b + 1)),
                             seed=k, dims=(d_a, d_b))
        zeta = h_min_cond(rho.mat, rho.dims).optimizer
        runs = [h2_cond(rho.mat, rho.dims, optimize=True, zeta_start=zeta) for _ in range(2)]
        res = runs[0]
        assert res.meta["status"] == "converged"
        assert res.value >= h2_cond(rho.mat, rho.dims).value
        assert res.value >= _h2_at(rho.mat, rho.dims, zeta)
        assert res.value <= res.meta["h2_upper"]
        assert res.value == runs[1].value
        assert res.optimizer.tobytes() == runs[1].optimizer.tobytes()
        assert res.meta == runs[1].meta


def test_h2_optimized_scores_every_start(monkeypatch):
    # with no mirror step the result is the best exactly scored start; on
    # these states the min-entropy optimizer beats the marginal by > 1e-4 bits
    monkeypatch.setattr(entropy, "H2_MAX_ITER", 0)
    for seed in (404, 407, 408, 425):
        rho = random_density(6, seed=seed, dims=(3, 2))
        zeta = h_min_cond(rho.mat, rho.dims).optimizer
        res = h2_cond(rho.mat, rho.dims, optimize=True, zeta_start=zeta)
        at_zeta = _h2_at(rho.mat, rho.dims, zeta)
        assert res.meta["status"] == "max_iter"
        assert res.value == at_zeta > h2_cond(rho.mat, rho.dims).value + 1e-4


def test_h2_gradient_matches_finite_differences():
    # G (returned in sigma's eigenbasis u) against central differences of the
    # objective along random Hermitian directions
    rng = np.random.default_rng(500)
    for d_a, d_b in [(2, 3), (3, 4)]:
        mat = random_density(d_a * d_b, seed=d_a * d_b).mat
        blocks = mat.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3)
        sigma = (random_density(d_b, seed=d_b).mat + np.eye(d_b) / d_b) / 2

        def terms(s):
            w, u = np.linalg.eigh(s)
            return entropy._h2_terms(blocks, w, u), u

        (_, grad, _, _), u = terms(sigma)
        g = u @ grad @ u.conj().T
        for _ in range(3):
            h = rng.normal(size=(d_b, d_b)) + 1j * rng.normal(size=(d_b, d_b))
            h = (h + h.conj().T) * 1e-6
            fd = (terms(sigma + h)[0][0] - terms(sigma - h)[0][0]) / 2
            assert abs(np.trace(g @ h).real - fd) <= 1e-6 * abs(fd)


def _kron_barrier_mat(z, rho, d_a):
    pad = np.zeros(((d_a + 1) * z.shape[0],) * 2, dtype=complex)
    pad[:rho.shape[0], :rho.shape[0]] = rho
    return np.kron(np.eye(d_a + 1), z) - pad


@pytest.mark.parametrize("d_a", [2, 3, 4])
@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_sdp_conditional_lift_matches_kron(monkeypatch, d_a, d_b):
    # the barrier matrix lifts z to I_{A+1} (x) z; building it by np.kron
    # instead must change nothing the solver returns
    z = random_density(d_b, seed=d_b).mat
    for rank in (1, d_a * d_b):
        rho = random_density(d_a * d_b, rank=rank, seed=d_a * d_b + rank).mat
        assert np.array_equal(entropy._barrier_mat(z, rho, d_a), _kron_barrier_mat(z, rho, d_a))
        val, z_opt, y, steps = entropy._sdp_conditional(rho, d_a, d_b)
        with monkeypatch.context() as m:
            m.setattr(entropy, "_barrier_mat", _kron_barrier_mat)
            ref_val, ref_z, ref_y, ref_steps = entropy._sdp_conditional(rho, d_a, d_b)
        assert val == ref_val
        assert np.array_equal(z_opt, ref_z)
        assert np.array_equal(y, ref_y)
        assert steps == ref_steps


@pytest.mark.parametrize("d_a, d_b", [(a, b) for a in (2, 3, 4) for b in (2, 3, 4)]
                         + [(8, 2), (2, 8)])
def test_newton_system_matches_definition(d_a, d_b):
    # gradient t I - tr_A S^-1 - z^-1 and Hessian X -> sum_ac S_ac X S_ca + z^-1 X z^-1,
    # with S_ac the blocks of S^-1 for S = I (x) z - rho, from np.kron and two inverses
    rng = np.random.default_rng(10 * d_a + d_b)
    rho = random_density(d_a * d_b, seed=d_a * d_b).mat
    g = rng.normal(size=(d_b, d_b)) + 1j * rng.normal(size=(d_b, d_b))
    z = g @ g.conj().T + 2 * np.eye(d_b)
    t = 3.7
    m_inv = np.linalg.inv(entropy._barrier_mat(z, rho, d_a))
    grad, hess = entropy._newton_system(m_inv, t, d_a, d_b)
    si = np.linalg.inv(np.kron(np.eye(d_a), z) - rho).reshape(d_a, d_b, d_a, d_b)
    zi = np.linalg.inv(z)
    ref = t * np.eye(d_b) - np.trace(si, axis1=0, axis2=2) - zi
    assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max()
    for _ in range(3):
        x = rng.normal(size=(d_b, d_b)) + 1j * rng.normal(size=(d_b, d_b))
        x = x + x.conj().T
        ref = zi @ x @ zi + sum(si[a, :, c] @ x @ si[c, :, a]
                                for a in range(d_a) for c in range(d_a))
        got = (hess @ x.reshape(-1)).reshape(d_b, d_b)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_trace_distances():
    rho = random_density(3, seed=6).mat
    assert trace_distance(rho, rho) == 0.0
    e0, e1 = np.zeros(2), np.zeros(2)
    e0[0] = e1[1] = 1.0
    assert np.isclose(trace_distance(np.outer(e0, e0), np.outer(e1, e1)), 2.0)
    assert np.isclose(generalized_trace_distance(rho, 0.5 * rho),
                      np.trace(rho).real)


def test_fidelity_family():
    rho = random_density(3, seed=7).mat
    assert np.isclose(fidelity(rho, rho), np.trace(rho).real)
    # sqrt(1 - F^2) amplifies fidelity round-off near F = 1
    assert purified_distance(rho, rho) < 1e-7
    rng = np.random.default_rng(8)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    assert np.isclose(fidelity(np.outer(a, a.conj()), np.outer(b, b.conj())),
                      abs(np.vdot(a, b)), atol=1e-10)
    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.1, 0.6, 0.3])
    assert np.isclose(fidelity(np.diag(p), np.diag(q)),
                      np.sum(np.sqrt(p * q)), atol=1e-12)
    assert np.isclose(purified_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), 1.0)


def test_generalized_fidelity_subnormalized():
    rho = 0.6 * random_density(2, seed=9).mat
    sig = 0.8 * random_density(2, seed=10).mat
    expected = fidelity(rho, sig) + np.sqrt(0.4 * 0.2)
    assert np.isclose(generalized_fidelity(rho, sig), expected)


def _distances_one(rho, sigma):
    """The single-pair distances that the stack-aware ones replaced: the
    references they must match bit for bit."""
    trace_d = schatten_norm(rho - sigma, 1)
    gtd = trace_d + abs(np.trace(rho).real - np.trace(sigma).real)
    fid = schatten_norm(mpow(rho, 0.5) @ mpow(sigma, 0.5), 1)
    gfid = fid + np.sqrt(max(0.0, 1.0 - np.trace(rho).real)
                         * max(0.0, 1.0 - np.trace(sigma).real))
    f = min(gfid, 1.0)
    return trace_d, gtd, fid, gfid, float(np.sqrt(max(0.0, 1.0 - f * f)))


def test_distances_of_stacks_match_single_pairs_bit_for_bit():
    pairs = [(0.7 * random_density(3, seed=k).mat, random_density(3, seed=50 + k).mat)
             for k in range(6)]
    rho, sigma = (np.stack(m) for m in zip(*pairs))
    refs = [_distances_one(r, s) for r, s in pairs]
    for j, fn in enumerate((trace_distance, generalized_trace_distance, fidelity,
                            generalized_fidelity, purified_distance)):
        want = [ref[j] for ref in refs]
        assert [fn(r, s) for r, s in pairs] == want, fn.__name__
        assert fn(rho, sigma).tolist() == want, fn.__name__
    # a pair whose fidelity product is Hermitian takes the eigvalsh 1-norm
    same = (random_density(3, seed=9).mat,) * 2
    assert (trace_distance(*same), generalized_trace_distance(*same), fidelity(*same),
            generalized_fidelity(*same), purified_distance(*same)) == _distances_one(*same)
    # and keeps it when stacked beside a generic pair
    mixed = (np.stack([same[0], rho[0]]), np.stack([same[1], sigma[0]]))
    assert fidelity(*mixed).tolist() == [fidelity(*same), refs[0][2]]
    assert isinstance(purified_distance(*same), float)


def test_fuchs_van_de_graaf_small_batch():
    for k in range(60):
        rng = np.random.default_rng(200 + k)
        d = int(rng.integers(2, 5))
        sc = (1.0, 1.0) if k % 2 else tuple(rng.uniform(0.2, 1.0, size=2))
        r = random_density(d, seed=int(rng.integers(2**31))).mat * sc[0]
        s = random_density(d, seed=int(rng.integers(2**31))).mat * sc[1]
        dist = generalized_trace_distance(r, s)
        p = purified_distance(r, s)
        assert 0.5 * dist <= p + 1e-9
        assert p <= np.sqrt(dist) + 1e-9


def test_entropy_checks_fail_on_unconverged_hmin(monkeypatch):
    # a bracket wider than the tolerance marks the solve "wide", which must
    # fail every record built on it rather than pass on a quiet number
    cfg = suites.SuiteConfig(seed=0)
    reps = suites.check_hmin_le_h2(cfg)
    assert [r.name for r in reps] == ["hmin_le_h2", "sdp_primal_feasibility"]
    assert all(r.passed and r.meta["hmin_bracket"] <= entropy.HMIN_BRACKET_TOL for r in reps)
    monkeypatch.setattr(entropy, "HMIN_BRACKET_TOL", 0.0)
    assert not any(r.passed for r in suites.check_hmin_le_h2(cfg))


def test_entropy_suite_solves_each_hmin_state_once(monkeypatch):
    # hmin_le_h2 and sdp_primal_feasibility share the same 100 solves
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return h_min_cond(*args, **kwargs)

    monkeypatch.setattr(suites, "h_min_cond", counted)
    for check in suites.build_checks(suites.SuiteConfig(suite="entropy")):
        check.run()
    assert len(calls) == 100
