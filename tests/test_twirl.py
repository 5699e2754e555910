from math import log2

import numpy as np
import pytest

from declab import twirl
from declab.linalg import permute_systems, schatten_norm, swap_operator, tensor
from declab.states import random_channel
from declab.symgroup import all_perms, perm_operator
from declab.twirl import (
    UnitaryEnsemble,
    circuit_ensemble,
    clifford_1q,
    commutant_basis,
    commutant_dim_brute,
    commutant_ops,
    design_epsilon_bound,
    design_twirl2,
    gram_closed_form,
    haar_sample,
    haar_samples,
    haar_twirl2_exact,
    haar_twirl2_mc,
    perm_twirl2_brute,
    perm_twirl2_exact,
    random_circuit,
)
from declab.verify import swap_pullback


def rand_herm(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


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
        assert np.isclose(res.alpha, 0.0) and np.isclose(res.beta, 1.0)


def test_haar_twirl2_exact_choi_beta():
    # beta for the pulled-back swap equals d^2/(d^2-1) ||omega - pi x omega_E||_2^2
    for seed, d in ((0, 2), (1, 3)):
        ch = random_channel(d, 2, tp=False, seed=seed)
        m = swap_pullback(ch.choi, d, ch.d_out)
        res = haar_twirl2_exact(m, d)
        dev = ch.choi - tensor(np.eye(d) / d, ch.env_marginal)
        expect = d**2 / (d**2 - 1) * schatten_norm(dev, 2) ** 2
        assert abs(res.beta.real - expect) < 1e-10
        assert abs(res.beta.imag) < 1e-12


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
        u = haar_sample(d, np.random.default_rng(100 + k))
        uu = tensor(u, u)
        assert np.abs(uu @ out - out @ uu).max() < 1e-10               # in the commutant


def test_haar_sample_properties():
    rng = np.random.default_rng(3)
    for d in (2, 3, 5):
        u = haar_sample(d, rng)
        assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-10
    n = 10_000
    acc = np.zeros((2, 2), dtype=complex)
    for _ in range(n):
        acc += haar_sample(2, rng)
    assert np.abs(acc / n).max() <= 5 / np.sqrt(n)                     # first moment vanishes


def test_haar_samples_match_successive_draws():
    rng = np.random.default_rng(11)
    one_by_one = np.array([haar_sample(3, rng) for _ in range(7)])
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
    singleton = UnitaryEnsemble(np.array([1.0]), (np.eye(3),))
    assert np.allclose(design_twirl2(singleton, m), m)
    d = 3
    perms = [perm_operator(p) for p in all_perms(d)]
    ens = UnitaryEnsemble(np.full(len(perms), 1 / len(perms)), tuple(perms))
    assert np.allclose(design_twirl2(ens, m), perm_twirl2_brute(m, d))


def test_design_epsilon_bound():
    assert design_epsilon_bound(clifford_1q(), 2) < 1e-10
    singleton = UnitaryEnsemble(np.array([1.0]), (np.eye(2),))
    assert design_epsilon_bound(singleton, 2) > 0.1
    with pytest.raises(ValueError):
        design_epsilon_bound(singleton, 9)
    with pytest.raises(ValueError):
        design_epsilon_bound(singleton, 3)


def dense_design_epsilon(ens, d):
    """d^2 ||Choi(G_W) - Choi(G_H)||_1 from the two d^4 x d^4 Choi matrices,
    the Haar one entry by entry from G_H(E_ij) = a_ij I + b_ij F."""
    n = d * d
    vecs = np.stack([np.kron(u, u).ravel() for u in ens.unitaries]) / np.sqrt(n)
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
    ensembles = [UnitaryEnsemble(np.full(12, 1 / 12), haar_samples(d, 12, seed))
                 for seed in (0, 1)]
    ensembles.append(UnitaryEnsemble(weights / weights.sum(), haar_samples(d, 12, 2)))
    if d == 4:
        ensembles.append(circuit_ensemble(2, 30, 50, seed=0))
    for ens in ensembles:
        ref = dense_design_epsilon(ens, d)
        assert abs(design_epsilon_bound(ens, d) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("d", [5, 6])
def test_design_epsilon_rank_floor(d):
    # J_W has rank <= N, so pinching onto the Sym and Anti blocks leaves at
    # least s^2 - N (a^2 - N) Haar eigenvalues 1/(n s) (1/(n a)) uncovered
    n_members = 10
    s, a = d * (d + 1) // 2, d * (d - 1) // 2
    ens = UnitaryEnsemble(np.full(n_members, 1 / n_members), haar_samples(d, n_members, d))
    floor = max(0, s * s - n_members) / s + max(0, a * a - n_members) / a
    assert design_epsilon_bound(ens, d) >= floor


def test_random_circuit_basics():
    assert np.allclose(random_circuit(2, 0, seed=0), np.eye(4))
    u = random_circuit(3, 12, seed=1)
    assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-9
    assert np.allclose(random_circuit(2, 7, seed=5), random_circuit(2, 7, seed=5))
    u_haar = random_circuit(2, 3, seed=2, gates="haar")
    assert np.abs(u_haar.conj().T @ u_haar - np.eye(4)).max() < 1e-9
    with pytest.raises(ValueError):
        random_circuit(5, 1)


def step_by_step_circuit(n_qubits, t, seed, gates):
    """random_circuit built without the gate cache: every step draws its pair
    and gate, then lifts the gate with tensor and permute_systems."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    tg = np.diag([1.0, np.exp(1j * np.pi / 4)])
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    rng = np.random.default_rng(seed)
    dims = (2,) * n_qubits
    u = np.eye(2 ** n_qubits, dtype=complex)
    for _ in range(t):
        q1, q2 = (int(q) for q in rng.choice(n_qubits, size=2, replace=False))
        if gates == "haar":
            z = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / np.sqrt(2)
            q, r = np.linalg.qr(z)
            gate = q * (np.diag(r) / np.abs(np.diag(r)))
        else:
            pick = rng.integers(3)
            gate = (tensor(h, np.eye(2)), tensor(tg, np.eye(2)), cnot)[pick]
        rest = [q for q in range(n_qubits) if q not in (q1, q2)]
        big = tensor(gate, np.eye(2 ** (n_qubits - 2)))
        order = [q1, q2] + rest
        u = permute_systems(big, dims, [order.index(q) for q in range(n_qubits)]) @ u
    return u


@pytest.mark.parametrize("n_qubits", [2, 3, 4])
@pytest.mark.parametrize("gates", ["universal", "haar"])
def test_random_circuit_matches_step_by_step(n_qubits, gates):
    for seed in range(3):
        assert np.array_equal(random_circuit(n_qubits, 20, seed=seed, gates=gates),
                              step_by_step_circuit(n_qubits, 20, seed, gates))


def test_cached_gate_lift_is_read_only():
    random_circuit(3, 10, seed=0)
    lifted = twirl._lifted_universal(3, 2, 0, 2)
    assert lifted is twirl._lifted_universal(3, 2, 0, 2)
    with pytest.raises(ValueError):
        lifted[0, 0] = 0.0


@pytest.mark.parametrize("n_qubits", [2, 3, 4])
@pytest.mark.parametrize("t", [0, 1, 7, 30])
@pytest.mark.parametrize("seed", [4, [8, 1]])
def test_circuit_ensemble_matches_random_circuit(n_qubits, t, seed):
    ens = circuit_ensemble(n_qubits, t, 12, seed=seed)
    seeds = np.random.default_rng(seed).integers(0, 2 ** 63 - 1, size=12)
    for member, s in zip(ens.unitaries, seeds):
        assert np.array_equal(member, random_circuit(n_qubits, t, seed=s))


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645    # PCG64's 128-bit LCG multiplier


def pcg64_state_with_zero_output(inc, k):
    """A PCG64 state whose output k (0-based) is 0, so 32-bit words 2k and
    2k + 1 are 0: the LCG state stepped to that output has equal halves,
    which XSL-RR maps to 0. Found by undoing k + 1 LCG steps."""
    state = 0x0123456789ABCDEF * (2 ** 64 + 1)
    inv = pow(_PCG64_MULT, -1, 2 ** 128)
    for _ in range(k + 1):
        state = (state - inc) * inv % 2 ** 128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


@pytest.mark.parametrize("n_qubits, k", [(2, 1), (3, 0), (4, 0)])
def test_step_indices_follow_a_rejected_draw(n_qubits, k):
    # words 2k, 2k + 1 are 0 and word 2k or 2k + 1 is a range-3 draw, which
    # Lemire's method rejects; every later draw shifts by one word or two
    rng = np.random.default_rng(1)
    state = pcg64_state_with_zero_output(rng.bit_generator.state["state"]["inc"], k)
    rng.bit_generator.state = state
    assert rng.integers(0, 2 ** 32, size=2 * k + 2, dtype=np.uint32)[2 * k:].tolist() == [0, 0]

    rng.bit_generator.state = state
    _, pairs, _, _ = twirl._universal_steps(n_qubits)
    expected = []
    for _ in range(6):
        pair = tuple(int(q) for q in rng.choice(n_qubits, size=2, replace=False))
        expected.append(3 * pairs.index(pair) + int(rng.integers(3)))
    after = rng.bit_generator.state

    rng.bit_generator.state = state
    assert twirl._step_indices(n_qubits, 6, rng).tolist() == expected
    assert rng.bit_generator.state == after


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


def test_commutant_dim_brute():
    assert commutant_dim_brute(4) == 11
    assert commutant_dim_brute(3) < 11
    with pytest.raises(ValueError):
        commutant_dim_brute(7)


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


def test_ensemble_validation():
    with pytest.raises(ValueError):
        UnitaryEnsemble(np.array([0.5, 0.4]), (np.eye(2), np.eye(2)))
    with pytest.raises(ValueError):
        UnitaryEnsemble(np.array([1.0]), (np.array([[1.0, 0.0], [0.0, 2.0]]),))
