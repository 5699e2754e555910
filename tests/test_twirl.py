import tracemalloc
from itertools import permutations
from math import log2

import numpy as np
import pytest

from declab import _groupavg, twirl
from declab._groupavg import ElementSet
from declab.linalg import permute_systems, schatten_norm, swap_operator, tensor
from declab.states import random_channel
from declab.symgroup import all_perms, perm_operator
from declab.twirl import (
    circuit_ensemble,
    clifford_1q,
    commutant_basis,
    commutant_dim_brute,
    commutant_ops,
    design_epsilon_bound,
    gram_closed_form,
    haar_samples,
    haar_twirl2_exact,
    haar_twirl2_mc,
    perm_twirl2_brute,
    perm_twirl2_exact,
)
from declab.verify import swap_pullback


def rand_herm(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def design_twirl2(ens, mat):
    """Weighted two-fold conjugation sum over the ensemble."""
    return sum(w * np.kron(u, u) @ mat @ np.kron(u, u).conj().T
               for w, u in zip(ens.weights, ens.elems))


def sym_herm(rng, d):
    f = swap_operator(d)
    m = rand_herm(rng, d * d)
    return (m + f @ m @ f) / 2


def test_haar_twirl2_exact_fixed_points():
    for d in (2, 3):
        res = haar_twirl2_exact(np.eye(d * d), d)
        assert np.allclose(res.reconstructed, np.eye(d * d))
        res = haar_twirl2_exact(swap_operator(d), d)
        assert np.allclose(res.reconstructed, swap_operator(d))
        assert np.allclose(res.coeffs, (0.0, 1.0))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_exact_twirls_reconstruct_from_their_coefficients(d):
    # both exact twirls are projections onto a commutant: (I, F) for Haar and
    # the 11 commutant operators for S_d, each a TwirlResult
    m = sym_herm(np.random.default_rng(d), d)
    results = [(haar_twirl2_exact(m, d), (np.eye(d * d), swap_operator(d)))]
    if d >= 4:
        results.append((perm_twirl2_exact(m, d), commutant_basis(d).ops))
    for res, basis in results:
        assert isinstance(res, twirl.TwirlResult) and len(res.coeffs) == len(basis)
        expansion = sum(c * a for c, a in zip(res.coeffs, basis))
        assert np.abs(res.reconstructed - expansion).max() <= 1e-12


def test_haar_twirl2_exact_choi_beta():
    # beta for the pulled-back swap equals d^2/(d^2-1) ||omega - pi x omega_E||_2^2
    for seed, d in ((0, 2), (1, 3)):
        ch = random_channel(d, 2, tp=False, seed=seed)
        m = swap_pullback(ch.choi, d, ch.d_out)
        res = haar_twirl2_exact(m, d)
        dev = ch.choi - tensor(np.eye(d) / d, ch.env_marginal)
        expect = d**2 / (d**2 - 1) * schatten_norm(dev, 2) ** 2
        assert abs(res.coeffs[1].real - expect) < 1e-10
        assert abs(res.coeffs[1].imag) < 1e-12


def test_haar_twirl_projection_properties():
    rng = np.random.default_rng(2)
    d = 3
    m = rand_herm(rng, d * d)
    res = haar_twirl2_exact(m, d)
    out = res.reconstructed
    assert np.isclose(np.trace(out), np.trace(m))                      # trace preserved
    assert np.abs(out - out.conj().T).max() < 1e-12                    # hermitian
    twice = haar_twirl2_exact(out, d).reconstructed
    assert np.allclose(twice, out)                                     # idempotent
    for k in range(20):
        u = haar_samples(d, 1, np.random.default_rng(100 + k))[0]
        uu = tensor(u, u)
        assert np.abs(uu @ out - out @ uu).max() < 1e-10               # in the commutant


def test_haar_sample_properties():
    rng = np.random.default_rng(3)
    for d in (2, 3, 5):
        u = haar_samples(d, 1, rng)[0]
        assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-10
    n = 10_000
    acc = np.zeros((2, 2), dtype=complex)
    for _ in range(n):
        acc += haar_samples(2, 1, rng)[0]
    assert np.abs(acc / n).max() <= 5 / np.sqrt(n)                     # first moment vanishes


def test_haar_samples_match_successive_draws():
    rng = np.random.default_rng(11)
    one_by_one = np.array([haar_samples(3, 1, rng)[0] for _ in range(7)])
    assert np.array_equal(haar_samples(3, 7, np.random.default_rng(11)), one_by_one)


def test_haar_twirl2_mc_agreement():
    rng = np.random.default_rng(4)
    d = 3
    m = rand_herm(rng, d * d)
    assert np.allclose(haar_twirl2_mc(swap_operator(d), d, 5, seed=1), swap_operator(d))
    n = 4000
    mc = haar_twirl2_mc(m, d, n, seed=2)
    exact = haar_twirl2_exact(m, d).reconstructed
    assert np.abs(mc - exact).max() < 5 * np.abs(m).max() / np.sqrt(n) * 3


def test_haar_twirl2_mc_scaling():
    rng = np.random.default_rng(5)
    d, n = 2, 300
    m = rand_herm(rng, d * d)
    exact = haar_twirl2_exact(m, d).reconstructed
    ratios = []
    for k in range(10):
        e1 = schatten_norm(haar_twirl2_mc(m, d, n, seed=10 + k) - exact, 2)
        e4 = schatten_norm(haar_twirl2_mc(m, d, 4 * n, seed=200 + k) - exact, 2)
        ratios.append(e1 / e4)
    avg = np.mean(ratios)
    assert 1.3 <= avg <= 3.0                                           # 1/sqrt(N) scaling


def test_haar_twirl2_mc_draws_one_chunk_at_a_time():
    # the samples are those of one batch of n, but only one chunk of them is
    # held at a time: drawing all n first peaks at 7.3 MiB for n = 10 000
    d, n = 3, 777                                      # ragged chunks of 101
    m = rand_herm(np.random.default_rng(6), d * d)
    adj = haar_samples(d, n, np.random.default_rng(3)).conj().transpose(0, 2, 1)
    batch = _groupavg.twirl2_mean(m.astype(complex), n, d, adj.__getitem__)
    assert np.array_equal(haar_twirl2_mc(m, d, n, seed=3), batch)
    peaks = []
    for size in (1000, 10_000):
        tracemalloc.start()
        try:
            haar_twirl2_mc(m, d, size)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]


def test_clifford_1q_is_exact_2_design():
    ens = clifford_1q()
    assert len(ens) == 24
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = rand_herm(rng, 4)
        tw = design_twirl2(ens, m)
        exact = haar_twirl2_exact(m, 2).reconstructed
        assert np.abs(tw - exact).max() < 1e-12
    assert np.allclose(design_twirl2(ens, swap_operator(2)), swap_operator(2))


def test_design_twirl2_reference_ensembles():
    rng = np.random.default_rng(7)
    m = rand_herm(rng, 9)
    singleton = ElementSet((np.eye(3),), np.array([1.0]))
    assert np.allclose(design_twirl2(singleton, m), m)
    d = 3
    perms = [perm_operator(p) for p in all_perms(d)]
    ens = ElementSet(tuple(perms), np.full(len(perms), 1 / len(perms)))
    assert np.allclose(design_twirl2(ens, m), perm_twirl2_brute(m, d))


def test_design_epsilon_bound():
    assert design_epsilon_bound(clifford_1q(), 2) < 1e-10
    singleton = ElementSet((np.eye(2),), np.array([1.0]))
    assert design_epsilon_bound(singleton, 2) > 0.1
    with pytest.raises(ValueError):
        design_epsilon_bound(singleton, 9)
    with pytest.raises(ValueError):
        design_epsilon_bound(singleton, 3)


def dense_design_epsilon(ens, d):
    """d^2 ||Choi(G_W) - Choi(G_H)||_1 from the two d^4 x d^4 Choi matrices,
    the Haar one entry by entry from G_H(E_ij) = a_ij I + b_ij F."""
    n = d * d
    vecs = np.stack([np.kron(u, u).ravel() for u in ens.elems]) / np.sqrt(n)
    choi_w = (ens.weights[:, None] * vecs).T @ vecs.conj()
    f = swap_operator(d)
    denom = d * d * (d * d - 1)
    a_coef = (d * d * np.eye(n) - d * f.T) / denom
    b_coef = (d * d * f.T - d * np.eye(n)) / denom
    choi_h = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            choi_h[:, i, :, j] = a_coef[i, j] * np.eye(n) + b_coef[i, j] * f
    diff = choi_w - choi_h.reshape(n * n, n * n) / n
    return n * np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_design_epsilon_matches_dense_choi(d):
    rng = np.random.default_rng(d)
    weights = rng.random(12)
    ensembles = [ElementSet(haar_samples(d, 12, seed), np.full(12, 1 / 12))
                 for seed in (0, 1)]
    ensembles.append(ElementSet(haar_samples(d, 12, 2), weights / weights.sum()))
    if d == 4:
        ensembles.append(circuit_ensemble(2, 30, 50, seed=0))
    for ens in ensembles:
        ref = dense_design_epsilon(ens, d)
        assert abs(design_epsilon_bound(ens, d) - ref) <= 1e-12 * ref


def test_design_epsilon_does_not_depend_on_the_chunk_budget(monkeypatch):
    ens = circuit_ensemble(2, 30, 50, seed=0)
    eps = design_epsilon_bound(ens, 4)
    monkeypatch.setattr(_groupavg, "CHUNK_BYTES", 1)            # one member a chunk
    assert abs(design_epsilon_bound(ens, 4) - eps) <= 1e-12 * eps


@pytest.mark.parametrize("d", [5, 6])
def test_design_epsilon_rank_floor(d):
    # J_W has rank <= N, so pinching onto the Sym and Anti blocks leaves at
    # least s^2 - N (a^2 - N) Haar eigenvalues 1/(n s) (1/(n a)) uncovered
    n_members = 10
    s, a = d * (d + 1) // 2, d * (d - 1) // 2
    ens = ElementSet(haar_samples(d, n_members, d), np.full(n_members, 1 / n_members))
    floor = max(0, s * s - n_members) / s + max(0, a * a - n_members) / a
    assert design_epsilon_bound(ens, d) >= floor


def one_circuit(n_qubits, t, seed):
    return circuit_ensemble(n_qubits, t, 1, seed).elems[0]


def test_random_circuit_basics():
    assert np.allclose(one_circuit(2, 0, seed=0), np.eye(4))
    u = one_circuit(3, 12, seed=1)
    assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-9
    assert np.allclose(one_circuit(2, 7, seed=5), one_circuit(2, 7, seed=5))
    with pytest.raises(ValueError):
        one_circuit(5, 1, seed=0)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        circuit_ensemble(2, -1, 3)


def step_by_step_circuit(n_qubits, steps):
    """The circuit of the given stack indices, built without the cached gate stack:
    step 3 * pair + gate lifts gate `gate` of (H x I, T x I, CNOT) to ordered pair
    number `pair` of permutations(range(n_qubits), 2) with tensor and permute_systems,
    and applies it."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    tg = np.diag([1.0, np.exp(1j * np.pi / 4)])
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    pairs = list(permutations(range(n_qubits), 2))
    dims = (2,) * n_qubits
    u = np.eye(2 ** n_qubits, dtype=complex)
    for step in steps:
        q1, q2 = pairs[step // 3]
        gate = (tensor(h, np.eye(2)), tensor(tg, np.eye(2)), cnot)[step % 3]
        rest = [q for q in range(n_qubits) if q not in (q1, q2)]
        big = tensor(gate, np.eye(2 ** (n_qubits - 2)))
        order = [q1, q2] + rest
        u = permute_systems(big, dims, [order.index(q) for q in range(n_qubits)]) @ u
    return u


def test_cached_gate_lift_is_read_only():
    stack = twirl._universal_steps(3)
    assert stack is twirl._universal_steps(3)
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 0.0


@pytest.mark.parametrize("n_qubits", [2, 3, 4])
@pytest.mark.parametrize("t", [0, 1, 7, 30])
@pytest.mark.parametrize("seed", [4, [8, 1]])
def test_circuit_ensemble_matches_random_circuit(n_qubits, t, seed):
    # every step is one documented draw: a uniform index into the 3 n (n - 1) lifted gates
    n_gates = 3 * n_qubits * (n_qubits - 1)
    ens = circuit_ensemble(n_qubits, t, 12, seed=seed)
    steps = np.random.default_rng(seed).integers(n_gates, size=(12, t))
    for member, idx in zip(ens.elems, steps):
        assert np.array_equal(member, step_by_step_circuit(n_qubits, idx))
    idx = np.random.default_rng(seed).integers(n_gates, size=(1, t))[0]
    assert np.array_equal(one_circuit(n_qubits, t, seed=seed),
                          step_by_step_circuit(n_qubits, idx))


def test_circuit_ensemble_trend():
    shallow = circuit_ensemble(2, 2, 60, seed=0)
    deep = circuit_ensemble(2, 25, 60, seed=0)
    assert design_epsilon_bound(deep, 4) < design_epsilon_bound(shallow, 4)


def test_circuit_time_penalty_arithmetic():
    # bumping the target accuracy from eps to eps / d^4 costs at most 5x depth
    for n in (2, 4, 8, 16):
        for eps in (0.5, 1e-2, 1e-6):
            for c in (0.3, 1.0, 7.0):
                t = c * (n**2 + n * log2(1 / eps))
                t_bar = c * (n**2 + n * log2(2 ** (4 * n) / eps))
                assert t_bar <= 5 * t + 1e-12


@pytest.mark.parametrize("d", [4, 5])
def test_gramian_closed_form(d):
    ops = commutant_ops(d)
    numeric = np.array([[np.trace(a @ b).real for b in ops] for a in ops])
    assert np.abs(numeric - gram_closed_form(d)).max() < 1e-9
    basis = commutant_basis(d)
    assert np.abs(basis.gram @ basis.gram_inv - np.eye(11)).max() < 1e-9
    assert np.isclose(basis.gram[0, 0], d * d)
    assert np.isclose(basis.gram[5, 5], d)
    assert np.isclose(basis.gram[9, 9], 4 * d * d - 4 * d)


def _commutant_ops_by_kron(d):
    """The 11 operators as sums of Kronecker products of |i><j| and |i><e|,
    with e the all-ones vector."""
    e = np.eye(d)

    def unit(i, j):
        return np.outer(e[i], e[j])

    pairs = [(i, j) for i in range(d) for j in range(d)]
    ie = [np.outer(e[i], np.ones(d)) for i in range(d)]
    return (
        np.kron(np.eye(d), np.eye(d)), np.kron(np.ones((d, d)), np.ones((d, d))),
        np.kron(np.eye(d), np.ones((d, d))) + np.kron(np.ones((d, d)), np.eye(d)),
        sum(np.kron(unit(i, j), unit(i, j)) for i, j in pairs),
        sum(np.kron(unit(i, j), unit(j, i)) for i, j in pairs),
        sum(np.kron(unit(i, i), unit(i, i)) for i in range(d)),
        sum(np.kron(unit(i, i), unit(i, j)) + np.kron(unit(i, i), unit(j, i))
            + np.kron(unit(i, j), unit(i, i)) + np.kron(unit(j, i), unit(i, i)) for i, j in pairs),
        sum(np.kron(x, x) + np.kron(x.T, x.T) for x in ie),
        sum(np.kron(x.T, x) + np.kron(x, x.T) for x in ie),
        sum(1j * (np.kron(unit(i, i), unit(i, j)) - np.kron(unit(i, i), unit(j, i))
                  + np.kron(unit(i, j), unit(i, i)) - np.kron(unit(j, i), unit(i, i)))
            for i, j in pairs),
        sum(1j * (np.kron(x, x) - np.kron(x.T, x.T)) for x in ie),
    )


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_commutant_ops_match_kron_sums(d):
    # same dtype and the same bits, signed zeros included
    for k, (op, ref) in enumerate(zip(commutant_ops(d), _commutant_ops_by_kron(d))):
        assert op.dtype == ref.dtype and op.tobytes() == ref.tobytes(), k


def test_commutant_basis_cached_read_only():
    basis = commutant_basis(5)
    assert basis is commutant_basis(5)
    for arr in basis.ops + (basis.gram, basis.gram_inv):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_gramian_singular_below_four():
    with pytest.raises(ValueError):
        commutant_basis(3)


def test_commutant_ops_invariance():
    d = 4
    f = swap_operator(d)
    for op in commutant_ops(d):
        assert np.abs(op - op.conj().T).max() < 1e-12
        assert np.abs(f @ op @ f - op).max() < 1e-12
        for p in all_perms(d):
            pp = tensor(perm_operator(p), perm_operator(p))
            assert np.abs(pp @ op @ pp.T - op).max() < 1e-12


def _commutant_dim_nullspace(d: int) -> int:
    """Dimension of {X : [X, P (x) P] = 0 for all P, [X, F] = 0} by nullspace
    counting over a generating set (all transpositions and the swap)."""
    if d > 6:
        raise ValueError("brute-force commutant limited to d <= 6")
    gens = []
    for i in range(d):
        for j in range(i + 1, d):
            p = list(range(d))
            p[i], p[j] = p[j], p[i]
            pm = perm_operator(p)
            gens.append(np.kron(pm, pm))
    gens.append(swap_operator(d))
    n = d * d
    m = np.zeros((n * n, n * n))
    eye = np.eye(n)
    for b in gens:
        k = np.kron(eye, b.T) - np.kron(b, eye)   # row-major vec of XB - BX
        m += k.T @ k
    w = np.linalg.eigvalsh(m)
    return int(np.sum(w < 1e-8 * max(w[-1], 1.0)))


def _burnside_orbits(d: int) -> int:
    """Orbits of S_d x {1, F} on index 4-tuples by Burnside's lemma: P fixes
    fix(P)^4 tuples, and P with F fixes fix(P^2)^2 of them."""
    perms = np.array(list(all_perms(d)))
    fix = (perms == np.arange(d)).sum(axis=1)
    fix_sq = (np.take_along_axis(perms, perms, axis=1) == np.arange(d)).sum(axis=1)
    return int((fix ** 4 + fix_sq ** 2).sum()) // (2 * len(perms))


def test_commutant_dim_brute():
    dims = [commutant_dim_brute(d) for d in range(1, 9)]
    assert dims == [1, 6, 10, 11, 11, 11, 11, 11]
    assert dims == [_burnside_orbits(d) for d in range(1, 9)]
    for d in (0, 9):
        with pytest.raises(ValueError):
            commutant_dim_brute(d)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_commutant_dim_brute_matches_nullspace(d):
    assert commutant_dim_brute(d) == _commutant_dim_nullspace(d)


def test_perm_twirl_fixed_points():
    for d in (4, 5):
        assert np.allclose(perm_twirl2_exact(np.eye(d * d), d).reconstructed, np.eye(d * d))
        assert np.allclose(perm_twirl2_exact(swap_operator(d), d).reconstructed,
                           swap_operator(d))
        assert np.allclose(perm_twirl2_brute(np.eye(d * d), d), np.eye(d * d))
        assert np.allclose(perm_twirl2_brute(swap_operator(d), d), swap_operator(d))


def test_perm_twirl_brute_two_level():
    m = np.zeros((4, 4))
    m[1, 1] = 1.0            # |01><01| at d = 2
    out = perm_twirl2_brute(m, 2)
    expect = np.zeros((4, 4))
    expect[1, 1] = expect[2, 2] = 0.5
    assert np.allclose(out, expect)


def test_perm_twirl_brute_matches_counting_formula():
    # diagonal product-basis input reduces to the exhaustive counting average
    d = 4
    tee = np.zeros((d * d, d * d))
    for i in range(d):
        tee[i * d + i, i * d + i] = 1.0 / d
    for (i, j) in [(0, 0), (0, 1), (2, 3)]:
        m = np.zeros((d * d, d * d))
        m[i * d + j, i * d + j] = 1.0
        out = perm_twirl2_brute(m, d)
        delta = 1.0 if i == j else 0.0
        closed = ((1 - delta) / (d * d - d) * np.eye(d * d)
                  - (1 - delta) / (d - 1) * tee + delta * tee)
        assert np.abs(out - closed).max() < 1e-12


@pytest.mark.parametrize("d", [4, 5])
def test_perm_twirl_exact_matches_brute(d):
    rng = np.random.default_rng(d)
    for k in range(4):
        m = sym_herm(rng, d)
        res = perm_twirl2_exact(m, d)
        brute = perm_twirl2_brute(m, d)
        assert schatten_norm(res.reconstructed - brute, 2) <= 1e-9 * schatten_norm(m, 2)
        # real symmetric input: the antisymmetric pair of coefficients vanishes
        m_real = (m + m.conj()) / 2
        m_real = (m_real + swap_operator(d) @ m_real @ swap_operator(d)) / 2
        coeffs = perm_twirl2_exact(m_real, d).coeffs
        assert np.abs(coeffs[9:]).max() < 1e-10


def test_perm_twirl_exact_requires_swap_symmetry():
    rng = np.random.default_rng(9)
    m = rand_herm(rng, 16)
    with pytest.raises(ValueError):
        perm_twirl2_exact(m, 4)


def test_perm_twirl_projection_properties():
    d = 4
    rng = np.random.default_rng(10)
    m = sym_herm(rng, d)
    out = perm_twirl2_brute(m, d)
    assert np.isclose(np.trace(out), np.trace(m))
    assert np.abs(out - out.conj().T).max() < 1e-12
    assert np.allclose(perm_twirl2_brute(out, d), out, atol=1e-12)
    f = swap_operator(d)
    assert np.abs(f @ out @ f - out).max() < 1e-10
    for p in all_perms(d):
        pp = tensor(perm_operator(p), perm_operator(p))
        assert np.abs(pp @ out - out @ pp).max() < 1e-10


def kron_perm_twirl(m, d):
    """Reference: the mean of (P (x) P) m (P (x) P)^T over all d! permutation matrices."""
    lifts = [np.kron(perm_operator(q), perm_operator(q)) for q in all_perms(d)]
    return sum(pp @ m @ pp.T for pp in lifts) / len(lifts)


def rand_op(rng, n):
    """A complex operator with no symmetry: not Hermitian, not swap-symmetric."""
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def rel_dev(out, ref):
    return np.abs(out - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_perm_twirl_chain_matches_kron_loop(d):
    m = rand_op(np.random.default_rng(20 + d), d * d)
    assert rel_dev(perm_twirl2_brute(m, d), kron_perm_twirl(m, d)) <= 1e-12


@pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
def test_perm_twirl_chain_matches_orbit_mean(d):
    # an independent method that enumerates no permutation, so it reaches d = 7 and 8
    m = rand_op(np.random.default_rng(30 + d), d * d)
    ref = _groupavg.orbit_mean(m.reshape((d,) * 4), d, 4).reshape(d * d, d * d)
    assert rel_dev(perm_twirl2_brute(m, d), ref) <= 1e-13


def test_perm_twirl_chain_conjugates_by_transpositions_only(monkeypatch):
    # one permutation matrix per transversal member, d(d + 1)/2 - 1 in all, not d!
    d = 6
    calls = []

    def spy(p):
        calls.append(tuple(p))
        return perm_operator(p)

    monkeypatch.setattr(twirl, "perm_operator", spy)
    perm_twirl2_brute(rand_op(np.random.default_rng(6), d * d), d)
    assert len(calls) == d * (d + 1) // 2 - 1 == 20
    assert all(sum(i != j for i, j in enumerate(p)) in (0, 2) for p in calls)


def test_perm_twirl_chain_needs_the_identity_in_each_transversal(monkeypatch):
    # mutant: each stage averages over the transpositions (j k), j < k, alone
    d = 4
    m = rand_op(np.random.default_rng(7), d * d)
    mean = _groupavg.twirl2_mean

    def without_identity(mat, n, d_, members):
        kept = [u for u in members(slice(0, n)) if not np.array_equal(u, np.eye(d_))]
        return mean(mat, len(kept), d_, lambda sl: np.array(kept[sl]))

    monkeypatch.setattr(twirl, "twirl2_mean", without_identity)
    assert rel_dev(perm_twirl2_brute(m, d), kron_perm_twirl(m, d)) > 1e-3


def test_perm_twirl_refuses_d_past_the_enumeration_cap():
    with pytest.raises(ValueError, match="permutation twirl"):
        perm_twirl2_brute(np.eye(81), 9)


@pytest.mark.parametrize("twirl_fn", [
    lambda m, d: haar_twirl2_exact(m, d),
    lambda m, d: haar_twirl2_mc(m, d, 3),
    lambda m, d: perm_twirl2_exact(m, d),
    lambda m, d: perm_twirl2_brute(m, d),
], ids=["haar_exact", "haar_mc", "perm_exact", "perm_brute"])
def test_two_copy_twirls_refuse_a_one_copy_shape(twirl_fn):
    # a (9, 9) matrix is two copies of d = 3, not of d = 4
    with pytest.raises(ValueError, match=r"two copies of 4 levels, not \(9, 9\)"):
        twirl_fn(np.eye(9), 4)
