from math import factorial

import numpy as np
import pytest

from declab import entropy, suites, verify
from declab._groupavg import ElementSet, channel_norms
from declab.entropy import h_min_cond
from declab.linalg import mpow, partial_trace, permute_systems, schatten_norm, swap_operator, tensor
from declab.states import (
    ChoiChannel,
    DensityOp,
    apply_channel_mat,
    max_entangled,
    pinch_mat,
    random_channel,
    random_cq,
    random_density,
)
from declab.symgroup import affine_family, all_perms, perm_operator
from declab.twirl import clifford_1q, haar_twirl2_exact
from declab.verify import (
    _trace_out,
    product_difference,
    swap_pullback,
    verify_cq_decoupling_lemma,
    verify_cq_general,
    verify_cq_hash,
    verify_cq_tpcp,
    verify_decoupling_lemma,
    verify_decoupling_theorem,
    verify_design_decoupling,
    verify_distance_from_classicality,
    verify_family_hash,
    verify_improved_decoupling,
    verify_perm_decoupling_lemma,
    verify_quantum_hash,
)


def close_rel(got, want, rtol=1e-12):
    return abs(got - want) <= rtol * abs(want)


def trace_channel(d):
    return ChoiChannel(np.eye(d) / d, d, 1, tp=True)


def constant_channel(d_in, d_out, seed=0):
    sigma = random_density(d_out, seed=seed).mat
    return ChoiChannel(tensor(np.eye(d_in) / d_in, sigma), d_in, d_out, tp=True)


def test_swap_pullback_adjoint_property():
    ch = random_channel(3, 2, tp=True, seed=0)
    m = swap_pullback(ch.choi, 3, 2)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    y1, _ = apply_channel_mat(ch, x, (3, 3), 0)
    y2, _ = apply_channel_mat(ch, y1, (2, 3), 1)
    assert abs(np.trace(m @ x) - np.trace(swap_operator(2) @ y2)) < 1e-10
    f = swap_operator(3)
    assert np.abs(f @ m @ f - m).max() < 1e-12


def test_decoupling_lemma_trivial_cases():
    rho = random_density(6, seed=2, dims=(3, 2))
    rep = verify_decoupling_lemma(rho.mat, rho.dims, trace_channel(3))
    assert rep.passed and abs(rep.lhs) < 1e-12 and abs(rep.rhs) < 1e-12
    prod = tensor(np.eye(3) / 3, random_density(2, seed=3).mat)
    rep = verify_decoupling_lemma(prod, (3, 2), random_channel(3, 2, seed=4))
    assert rep.passed and abs(rep.lhs) < 1e-12


def test_decoupling_lemma_random_instances():
    k = 0
    for d_a in (2, 3, 4):
        for d_r, d_e in ((2, 2), (3, 2), (2, 3)):
            rng = np.random.default_rng(50 + k)
            herm = rng.normal(size=(d_a * d_r, d_a * d_r)) \
                + 1j * rng.normal(size=(d_a * d_r, d_a * d_r))
            herm = (herm + herm.conj().T) / 2
            ch = random_channel(d_a, d_e, tp=False, seed=60 + k)
            rep = verify_decoupling_lemma(herm, (d_a, d_r), ch)
            assert rep.passed, (d_a, d_r, d_e, rep.lhs, rep.rhs)
            assert abs(rep.lhs - rep.rhs) <= 1e-10 * max(1, rep.rhs)
            k += 1


@pytest.mark.parametrize("d_a", [2, 3, 4])
@pytest.mark.parametrize("d_r", [2, 3])
def test_decoupling_lemma_contraction_matches_kronecker_route(d_a, d_r):
    # tr[(xi (x) xi) big] with big the twirled channel pullback on copies 1, 3
    # and the input's pullback on copies 2, 4, built as d_A^4 x d_A^4 operators
    rng = np.random.default_rng(10 * d_a + d_r)
    herm = rng.normal(size=(d_a * d_r,) * 2) + 1j * rng.normal(size=(d_a * d_r,) * 2)
    herm = (herm + herm.conj().T) / 2
    ch = random_channel(d_a, 2, tp=bool(d_r % 2), seed=d_a + d_r)
    twirled = haar_twirl2_exact(swap_pullback(ch.choi, d_a, 2), d_a).reconstructed
    big = permute_systems(tensor(twirled, swap_pullback(herm, d_a, d_r)), (d_a,) * 4,
                          [0, 2, 1, 3])
    xi = max_entangled(d_a).mat - np.eye(d_a * d_a) / d_a ** 2
    ref = np.trace(tensor(xi, xi) @ big).real
    assert abs(verify_decoupling_lemma(herm, (d_a, d_r), ch).lhs - ref) <= 1e-12 * abs(ref)


def test_decoupling_lemma_scaling_homogeneity():
    rho = random_density(6, seed=5, dims=(3, 2))
    ch = random_channel(3, 2, seed=6)
    full = verify_decoupling_lemma(rho.mat, rho.dims, ch)
    half = verify_decoupling_lemma(0.5 * rho.mat, rho.dims, ch)
    assert np.isclose(half.lhs, 0.25 * full.lhs)
    assert np.isclose(half.rhs, 0.25 * full.rhs)


def test_decoupling_theorem_bound():
    rho = random_density(8, seed=7, dims=(4, 2))
    ch = random_channel(4, 2, tp=True, seed=8)
    rep = verify_decoupling_theorem(rho, ch, n_samples=150, seed=9)
    assert rep.passed
    rep = verify_decoupling_theorem(rho, trace_channel(4), n_samples=10, seed=10)
    assert rep.passed and rep.lhs < 1e-12


def test_improved_decoupling():
    rho = random_density(8, seed=11, dims=(4, 2))
    ch = random_channel(4, 2, tp=True, seed=12)
    rep = verify_improved_decoupling(rho, ch, n_samples=150, seed=13)
    assert rep.passed and rep.meta["brackets_positive"]
    # product inputs force both sides to zero
    prod = DensityOp(tensor(np.eye(4) / 4, random_density(2, seed=14).mat), (4, 2))
    rep = verify_improved_decoupling(prod, constant_channel(4, 2), n_samples=5, seed=15)
    assert rep.passed and rep.lhs < 1e-10 and rep.rhs < 1e-6


@pytest.mark.parametrize("n", [0, 1])
def test_sampled_records_need_two_samples(monkeypatch, n):
    # one sample has no standard error; the count is rejected before any draw
    def draw(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(verify, "haar_samples", draw)
    monkeypatch.setattr(suites.twirl, "haar_samples", draw)
    rho = random_density(8, seed=7, dims=(4, 2))
    ch = random_channel(4, 2, tp=True, seed=8)
    for verifier in (verify_decoupling_theorem, verify_improved_decoupling):
        with pytest.raises(ValueError, match=f"needs n_samples >= 2, got n_samples = {n}$"):
            verifier(rho, ch, n_samples=n)
    with pytest.raises(ValueError, match=f"needs n_samples >= 2, got n_samples = {n}$"):
        suites.mc_cross_check(0, n)


def test_sampled_equality_passes_within_three_standard_errors():
    # tolerance 1e-6 relative to max(1, |rhs|) = 2, plus 3 se
    inside, outside = 2.0 + 2e-6 + 3 * 0.01 - 1e-9, 2.0 + 2e-6 + 3 * 0.01 + 1e-9
    for lhs, ok in ((inside, True), (outside, False), (2.0 - (inside - 2.0), True)):
        rep = verify.equality_report("sampled", lhs, 2.0, 1e-6, se=0.01)
        assert rep.passed is ok
        assert rep.meta == {"se": 0.01, "strict_pass": False}
    assert verify.equality_report("s", 2.0 + 1e-6, 2.0, 1e-6, se=0.01).meta["strict_pass"]
    # without se the record is exact: no allowance and no sampled meta
    rep = verify.equality_report("exact", inside, 2.0, 1e-6, note=1)
    assert not rep.passed and rep.meta == {"note": 1}


def test_mc_cross_check_records_its_strict_verdict():
    rep = suites.mc_cross_check(0, n_mc=2000)
    assert rep.kind == "equality" and rep.passed
    assert rep.meta["strict_pass"] is (abs(rep.lhs - rep.rhs) <= 1e-12 * max(1.0, rep.rhs))
    assert rep.meta["se"] > 0 and rep.meta["n_samples"] == 2000


def test_design_decoupling_clifford_exact():
    ens = clifford_1q()
    for k in range(3):
        rho = random_density(4, seed=20 + k, dims=(2, 2))
        ch = random_channel(2, 2, tp=True, seed=30 + k)
        rep = verify_design_decoupling(ens, rho, ch)
        assert rep.passed
        assert rep.meta["epsilon"] < 1e-10


def test_design_decoupling_singleton_inflated():
    singleton_ens = ElementSet((np.eye(2),), np.array([1.0]))
    rho = random_density(4, seed=40, dims=(2, 2))
    ch = random_channel(2, 2, tp=True, seed=41)
    rep = verify_design_decoupling(singleton_ens, rho, ch)
    assert rep.passed and rep.meta["epsilon"] > 0.1


def test_cq_lemma_two_permutation_oracle():
    # d_A = 2: the exhaustive sum has exactly two terms, written out by hand
    rho = random_cq((2, 2), seed=42)
    ch = random_channel(2, 2, tp=False, seed=43)
    rep = verify_cq_decoupling_lemma(rho, ch)
    by_hand = 0.0
    for p in ((0, 1), (1, 0)):
        conj = tensor(perm_operator(p), np.eye(2))
        moved = conj @ rho.mat @ conj.T
        out, _ = apply_channel_mat(ch, moved, rho.dims, 0)
        dev = out - tensor(ch.env_marginal, partial_trace(moved, rho.dims, [1]))
        by_hand += 0.5 * schatten_norm(dev, 2) ** 2
    assert rep.passed
    assert abs(rep.lhs - by_hand) < 1e-12


@pytest.mark.parametrize("d_a", [3, 4, 7])
def test_cq_lemma_random(d_a):
    for k in range(3):
        rho = random_cq((d_a, 2), seed=100 + k)
        ch = random_channel(d_a, 2, tp=bool(k % 2), seed=110 + k)
        rep = verify_cq_decoupling_lemma(rho, ch)
        assert rep.passed, (d_a, k, rep.lhs, rep.rhs)


def test_cq_lemma_rejects_quantum_input():
    with pytest.raises(ValueError):
        verify_cq_decoupling_lemma(max_entangled(2), random_channel(2, 2, seed=0))


def test_cq_hash():
    prod = DensityOp(tensor(np.eye(4) / 4, random_density(2, seed=50).mat), (4, 2))
    rep = verify_cq_hash(prod, 2, 2)
    assert rep.passed and rep.lhs < 1e-12
    for k in range(5):
        rho = random_cq((4, 2), seed=120 + k)
        rep = verify_cq_hash(rho, 2, 2)
        assert rep.passed and rep.meta["weak_pass"]
    # classical on both sides: diagonal state
    diag = DensityOp(np.diag(np.random.default_rng(0).dirichlet(np.ones(8))), (4, 2))
    rep = verify_cq_hash(diag, 2, 2)
    assert rep.passed


@pytest.mark.parametrize("d_a1, d_a2", [(2, 2), (3, 2), (2, 3), (2, 4)])
def test_trace_out_channel_is_the_partial_trace(d_a1, d_a2):
    d_r = 3
    n = d_a1 * d_a2 * d_r
    rng = np.random.default_rng(d_a1 * 10 + d_a2)
    stack = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
    tr_a2 = _trace_out(d_a1, d_a2)
    for mat in stack:
        got, dims = apply_channel_mat(tr_a2, mat, (d_a1 * d_a2, d_r), 0)
        assert dims == (d_a1, d_r)
        assert np.abs(got - partial_trace(mat, (d_a1, d_a2, d_r), [0, 2])).max() < 1e-13
    assert np.abs(tr_a2.env_marginal - np.eye(d_a1) / d_a1).max() < 1e-15


def _hash_norms_reference(mat, d_a1, d_a2, d_r, perms, p):
    """Schatten p-norm of tr_A2(P X P^T) - pi_A1 (x) X_R for each permutation P
    of A = A1 x A2, one permutation at a time."""
    d_a = d_a1 * d_a2
    target = tensor(np.eye(d_a1) / d_a1, partial_trace(mat, (d_a, d_r), [1]))
    out = []
    for perm in perms:
        g = tensor(perm_operator(perm), np.eye(d_r))
        reduced = partial_trace(g @ mat @ g.T, (d_a1, d_a2, d_r), [0, 2])
        out.append(schatten_norm(reduced - target, p))
    return np.array(out)


@pytest.mark.parametrize("d_a1, d_a2", [(2, 2), (3, 2), (2, 3)])
def test_hash_left_sides_match_per_permutation_reference(d_a1, d_a2):
    d_a, d_r = d_a1 * d_a2, 2
    full = list(all_perms(d_a))

    def close(got, want):
        return abs(got - want) <= 1e-12 * max(1.0, abs(want))

    cq = random_cq((d_a, d_r), seed=300 + d_a1)
    ref = np.mean(_hash_norms_reference(cq.mat, d_a1, d_a2, d_r, full, 1))
    assert close(verify_cq_hash(cq, d_a1, d_a2).lhs, ref)
    rng = np.random.default_rng(310 + d_a1)
    members = [tuple(int(j) for j in rng.permutation(d_a)) for _ in range(7)]
    fam = ElementSet(tuple(members), rng.dirichlet(np.ones(7)))
    ref = fam.weights @ _hash_norms_reference(cq.mat, d_a1, d_a2, d_r, members, 1)
    assert close(verify_family_hash(fam, cq, d_a1, d_a2).lhs, ref)

    rho = random_density(d_a * d_r, seed=320 + d_a1, dims=(d_a, d_r))
    rep = verify_quantum_hash(rho, d_a1, d_a2)
    assert close(rep.lhs, np.mean(_hash_norms_reference(rho.mat, d_a1, d_a2, d_r, full, 1)))
    sandwich = tensor(np.eye(d_a), mpow(h_min_cond(rho.mat, rho.dims).optimizer, -0.25))
    tilde = sandwich @ rho.mat @ sandwich
    ref = np.mean(_hash_norms_reference(tilde, d_a1, d_a2, d_r, full, 2) ** 2)
    assert close(rep.meta["two_norm_check"].lhs, ref)


def test_cq_tpcp():
    rho = random_cq((4, 2), seed=130)
    rep = verify_cq_tpcp(rho, constant_channel(4, 2, seed=1))
    assert rep.passed and rep.lhs < 1e-12        # constant output decouples exactly
    for k in range(5):
        rho = random_cq((4, 2), seed=140 + k)
        ch = random_channel(4, 2, tp=True, seed=150 + k)
        assert verify_cq_tpcp(rho, ch).passed
    with pytest.raises(ValueError):
        verify_cq_tpcp(rho, random_channel(4, 2, tp=False, seed=0))


def test_cq_general_and_consistency_with_hash():
    # tr_A2 : 4 = 2 x 2 -> 2, whose Choi operator is the partial trace of Phi_4
    ch_pt = ChoiChannel(partial_trace(max_entangled(4).mat, (4, 2, 2), [0, 1]), 4, 2, tp=True)
    for k in range(5):
        rho = random_cq((4, 2), seed=160 + k)
        rep_gen = verify_cq_general(rho, ch_pt)
        rep_hash = verify_cq_hash(rho, 2, 2)
        assert rep_gen.passed
        # the general bound is looser than the dedicated hash bound here
        assert rep_gen.lhs <= rep_gen.rhs + 1e-12
        assert abs(rep_gen.lhs - rep_hash.lhs) < 1e-10
    for k in range(3):
        rho = random_cq((4, 2), seed=170 + k)
        ch = random_channel(4, 2, tp=False, seed=180 + k)
        assert verify_cq_general(rho, ch).passed


def test_family_hash_three_families():
    affine = affine_family(2)
    full = ElementSet(tuple(all_perms(4)))
    singleton = ElementSet((tuple(range(4)),))
    for k in range(4):
        rho = random_cq((4, 2), seed=190 + k)
        for fam in (affine, full, singleton):
            rep = verify_family_hash(fam, rho, 2, 2)
            assert rep.passed
        assert verify_family_hash(affine, rho, 2, 2).meta["epsilon"] < 1e-12
        assert verify_family_hash(singleton, rho, 2, 2).meta["epsilon"] > 1.0


def test_family_hash_affine_family_at_d8():
    # epsilon is the family's pairwise dependence, which needs no exhaustive
    # reference over S_8
    rep = verify_family_hash(affine_family(3), random_cq((8, 2), seed=0), 2, 4)
    assert rep.passed and rep.meta["epsilon"] < 1e-12 and rep.meta["family_size"] == 56


def test_distance_from_classicality():
    # already classical channel: both sides vanish
    ch = random_channel(4, 2, tp=True, seed=200)
    ch = ChoiChannel(pinch_mat(ch.choi, (4, 2)), 4, 2, tp=True)
    rep = verify_distance_from_classicality(ch, 2)
    assert rep.passed and abs(rep.lhs) < 1e-14 and abs(rep.rhs) < 1e-14
    # d_R = 1 degenerates to zero exactly
    ch = random_channel(4, 2, tp=False, seed=201)
    rep = verify_distance_from_classicality(ch, 1)
    assert rep.passed and abs(rep.lhs) < 1e-14 and abs(rep.rhs) < 1e-14
    for k, d_r in enumerate((2, 3, 4)):
        ch = random_channel(4, 2, tp=bool(k % 2), seed=210 + k)
        rep = verify_distance_from_classicality(ch, d_r)
        assert rep.passed
        assert rep.meta["bound_check"].passed


def test_perm_decoupling_lemma():
    # constant channel: the difference state is annihilated
    rep = verify_perm_decoupling_lemma(constant_channel(4, 2), 4)
    assert rep.passed and abs(rep.lhs) < 1e-13 and abs(rep.rhs) < 1e-13
    for k, (d_a, d_r) in enumerate(((4, 2), (4, 3), (4, 4), (7, 3))):
        ch = random_channel(d_a, 2, tp=bool(k % 2), seed=220 + k)
        rep = verify_perm_decoupling_lemma(ch, d_r)
        assert rep.passed, (d_a, d_r, rep.lhs, rep.rhs)


def test_perm_vs_haar_rhs_follows_the_verifier(monkeypatch):
    # the environment term divided by d_A^2 in place of d_A must fail the
    # lemma's records and, through the shared right side, the Haar comparison
    rhs = verify.perm_lemma_rhs

    def mutant(ch, d_r):
        d_a = ch.d_in
        shift = schatten_norm(ch.env_marginal, 2) ** 2 * (1 / d_a - 1 / d_a ** 2)
        return rhs(ch, d_r) + (d_a / d_r) ** 2 * (d_r - 1) / (d_a - 1) * shift

    cfg = suites.SuiteConfig(seed=0)
    checks = (suites.check_perm_decoupling, suites.check_perm_vs_haar_rhs)
    assert all(r.passed for check in checks for r in check(cfg))
    monkeypatch.setattr(verify, "perm_lemma_rhs", mutant)
    for check in checks:
        assert not any(r.passed for r in check(cfg))


def test_exhaustive_averages_share_one_cap():
    # one cap of 8! = 40320 enumerated elements, checked on the closed-form count:
    # the coset averages reach d_A = 9 where their count is small, the full-group
    # CQ averages stop at S_8, and ch7 needs d_A >= 4
    rep = verify_perm_decoupling_lemma(random_channel(9, 2, seed=2), 2)
    assert rep.passed and rep.kind == "equality"
    with pytest.raises(ValueError, match="362880"):
        verify_cq_tpcp(random_cq((9, 2), seed=0), random_channel(9, 2, tp=True, seed=1))
    with pytest.raises(ValueError, match="332640"):
        verify_quantum_hash(random_density(24, seed=6, dims=(12, 2)), 6, 2)
    with pytest.raises(ValueError):
        verify_distance_from_classicality(random_channel(3, 2, seed=3), 2)
    for verifier in (verify_perm_decoupling_lemma, verify_distance_from_classicality):
        with pytest.raises(ValueError, match="needs d_A >= 4"):
            verifier(random_channel(3, 2, seed=4), 2)
        with pytest.raises(ValueError, match="needs 1 <= d_R <= 4, got d_R = 5"):
            verifier(random_channel(4, 2, seed=5), 5)


@pytest.mark.parametrize("d_a", [4, 5, 6, 7])
def test_image_set_averages_equal_the_full_group_mean(d_a):
    # the embedded inputs live on the first d_R levels of A and are invariant
    # under sigma (x) sigma there, so only the image set of those points matters
    full = all_perms(d_a)
    for d_r in sorted({2, 3, d_a - 1, d_a}):
        ch = random_channel(d_a, 2, tp=False, seed=400 + 10 * d_a + d_r)
        _, (phi, tee, pi) = verify._embedded_pair_states(d_a, d_r)
        norms2, norms1 = channel_norms(ch, phi - tee, (d_a, d_r), full, (2, 1)).T
        rep = verify_distance_from_classicality(ch, d_r)
        assert close_rel(rep.lhs, np.mean(norms2 ** 2))
        assert close_rel(rep.meta["bound_check"].lhs, np.mean(norms1))
        norms2 = channel_norms(ch, phi - pi, (d_a, d_r), full, (2,))[:, 0]
        assert close_rel(verify_perm_decoupling_lemma(ch, d_r).lhs, np.mean(norms2 ** 2))


@pytest.mark.parametrize("d_a1, d_a2", [(2, 2), (3, 2), (2, 3), (7, 1)])
def test_split_averages_equal_the_full_group_mean(d_a1, d_a2):
    # a CQ state's tr_A2 output sees only the blocks of A1, and the target
    # pi_A1 (x) rho_R sees no relabelling of A1; tr_A2 sees none of A2
    d_a, d_r = d_a1 * d_a2, 2
    full = all_perms(d_a)
    tr_a2 = _trace_out(d_a1, d_a2)
    cq = random_cq((d_a, d_r), seed=500 + d_a)
    ref = np.mean(verify._deviation_norms(tr_a2, cq.mat, cq.dims, full, 1))
    assert close_rel(verify_cq_hash(cq, d_a1, d_a2).lhs, ref)
    rho = random_density(d_a * d_r, seed=510 + d_a, dims=(d_a, d_r))
    rep = verify_quantum_hash(rho, d_a1, d_a2)
    assert close_rel(rep.lhs, np.mean(verify._deviation_norms(tr_a2, rho.mat, rho.dims, full, 1)))
    sandwich = tensor(np.eye(d_a), mpow(h_min_cond(rho.mat, rho.dims).optimizer, -0.25))
    tilde = sandwich @ rho.mat @ sandwich
    ref = np.mean(verify._deviation_norms(tr_a2, tilde, rho.dims, full, 2) ** 2)
    assert close_rel(rep.meta["two_norm_check"].lhs, ref)


@pytest.mark.parametrize("d_a", [9, 10])
def test_permutation_identities_past_d8(d_a):
    # S_9 and S_10 are past the cap; their image-set cosets are not
    for d_r in (2, 3):
        ch = random_channel(d_a, 2, tp=False, seed=600 + 10 * d_a + d_r)
        rep = verify_distance_from_classicality(ch, d_r)
        assert rep.passed and rep.tolerance == verify.EQ_TOL
        assert rep.meta["bound_check"].passed
        rep = verify_perm_decoupling_lemma(random_channel(d_a, 2, tp=True, seed=700 + d_r), d_r)
        assert rep.passed and rep.tolerance == verify.EQ_TOL


def test_hash_bounds_at_a_3x3_split():
    # 280 block partitions and 10080 cosets of S_3 x S_3 in S_9
    rep = verify_cq_hash(random_cq((9, 2), seed=800), 3, 3)
    assert rep.passed and rep.meta["weak_pass"]
    assert rep.meta["hmin_bracket"] <= entropy.HMIN_BRACKET_TOL
    rep = verify_quantum_hash(random_density(18, seed=801, dims=(9, 2)), 3, 3)
    assert rep.passed and rep.meta["two_norm_check"].passed
    assert rep.meta["hmin_bracket"] <= entropy.HMIN_BRACKET_TOL


@pytest.mark.parametrize("d_a1, d_a2", [(-2, -2), (0, 4), (4, 0), (2, 3), (2.9, 2.1), (1.9, 4.2)])
def test_hash_verifiers_refuse_a_bad_split(d_a1, d_a2):
    cq = random_cq((4, 2), seed=900)
    fam = ElementSet(tuple(all_perms(4)))
    for run in (lambda: verify_cq_hash(cq, d_a1, d_a2),
                lambda: verify_family_hash(fam, cq, d_a1, d_a2),
                lambda: verify_quantum_hash(cq, d_a1, d_a2)):
        with pytest.raises(ValueError, match=f"split {d_a1} x {d_a2}"):
            run()


def test_hash_verifiers_refuse_a_one_point_split():
    # d_A = 1 would divide by d_A - 1 = 0 in the bounds
    cq = random_cq((1, 2), seed=0)
    for run in (lambda: verify_cq_hash(cq, 1, 1),
                lambda: verify_family_hash(ElementSet(((0,),)), cq, 1, 1),
                lambda: verify_quantum_hash(cq, 1, 1)):
        with pytest.raises(ValueError, match="d_A >= 2, got d_A = 1"):
            run()


# d_A = 1 would divide by d_A - 1 or by 1 - 1/d_A^2 = 0 in the bounds
ONE_POINT_VERIFIERS = {
    "cq_decoupling_lemma": lambda: verify_cq_decoupling_lemma(random_cq((1, 2), seed=0),
                                                              random_channel(1, 2, seed=1)),
    "cq_hash": lambda: verify_cq_hash(random_cq((1, 2), seed=0), 1, 1),
    "cq_tpcp": lambda: verify_cq_tpcp(random_cq((1, 2), seed=0),
                                      random_channel(1, 2, tp=True, seed=1)),
    "cq_general": lambda: verify_cq_general(random_cq((1, 2), seed=0),
                                            random_channel(1, 2, seed=1)),
    "family_hash": lambda: verify_family_hash(ElementSet(((0,),)), random_cq((1, 2), seed=0),
                                              1, 1),
    "improved_decoupling": lambda: verify_improved_decoupling(
        random_density(2, seed=0, dims=(1, 2)), random_channel(1, 2, seed=1), n_samples=4),
}


@pytest.mark.parametrize("name", ONE_POINT_VERIFIERS)
def test_verifiers_refuse_a_one_point_a(name):
    with pytest.raises(ValueError, match="needs d_A >= 2, got d_A = 1"):
        ONE_POINT_VERIFIERS[name]()


@pytest.mark.parametrize("epsilon", [-1.0, -1e-300, np.nan, np.inf])
def test_design_decoupling_refuses_a_bad_epsilon(epsilon):
    rho = random_density(4, seed=2, dims=(2, 2))
    ch = random_channel(2, 2, tp=True, seed=3)
    with pytest.raises(ValueError, match=f"epsilon must be finite and >= 0, got {epsilon}"):
        verify_design_decoupling(clifford_1q(), rho, ch, epsilon=epsilon)
    assert verify_design_decoupling(clifford_1q(), rho, ch, epsilon=0.0).meta["epsilon"] == 0.0


# every verifier, and every function under one, that applies a channel on A, each
# given a channel from 3 levels where d_A = 4 (d_A = 2 for the Clifford ensemble's
# design average): one rule, `ChoiChannel.require_input`, in one wording
CHANNEL_VERIFIERS = {
    "apply_channel_mat": lambda rho, ch: apply_channel_mat(ch, rho.mat, rho.dims),
    "haar_lemma_rhs": lambda rho, ch: verify.haar_lemma_rhs(rho.mat, rho.dims, ch),
    "decoupling_lemma": lambda rho, ch: verify_decoupling_lemma(rho.mat, rho.dims, ch),
    "decoupling_theorem": lambda rho, ch: verify_decoupling_theorem(rho, ch, n_samples=4),
    "improved_decoupling": lambda rho, ch: verify_improved_decoupling(rho, ch, n_samples=4),
    "design_decoupling": lambda rho, ch: verify_design_decoupling(
        clifford_1q(), random_cq((2, 2), seed=0), ch),
    "cq_decoupling_lemma": verify_cq_decoupling_lemma,
    "cq_tpcp": verify_cq_tpcp,
    "cq_general": verify_cq_general,
}


@pytest.mark.parametrize("name", CHANNEL_VERIFIERS)
def test_channel_verifiers_refuse_a_mismatched_input_dimension(name):
    rho = random_cq((4, 2), seed=0)
    d_a = 2 if name == "design_decoupling" else 4
    with pytest.raises(ValueError, match=f"channel input dimension 3 does not match d_A = {d_a}"):
        CHANNEL_VERIFIERS[name](rho, random_channel(3, 2, tp=True, seed=0))


@pytest.mark.parametrize("call, message", [
    (lambda: verify_decoupling_lemma(random_density(4, seed=0).mat, (2, 3),
                                     random_channel(2, 2, seed=3)),
     r"matrix shape \(4, 4\) does not match dims \(2, 3\)"),
    (lambda: verify.haar_lemma_rhs(np.eye(2) / 2, (1, 2), random_channel(1, 2, seed=3)),
     "needs d_A >= 2, got d_A = 1"),
    (lambda: verify.perm_lemma_rhs(random_channel(4, 2, seed=3), 0),
     "needs 1 <= d_R <= 4, got d_R = 0"),
], ids=["decoupling_lemma", "haar_lemma_rhs", "perm_lemma_rhs"])
def test_the_lemma_sides_refuse_their_sizes_by_the_rules(call, message):
    # these once ended in numpy's reshape error and in a ZeroDivisionError
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


CQ_VERIFIERS = {
    "cq_decoupling_lemma": lambda rho: verify_cq_decoupling_lemma(
        rho, random_channel(4, 2, tp=False, seed=1)),
    "cq_hash": lambda rho: verify_cq_hash(rho, 2, 2),
    "cq_tpcp": lambda rho: verify_cq_tpcp(rho, random_channel(4, 2, tp=True, seed=1)),
    "cq_general": lambda rho: verify_cq_general(rho, random_channel(4, 2, tp=False, seed=1)),
    "family_hash": lambda rho: verify_family_hash(ElementSet(tuple(all_perms(4))), rho, 2, 2),
}


@pytest.mark.parametrize("name", CQ_VERIFIERS)
def test_cq_verifiers_refuse_a_state_not_classical_on_a(name):
    rho = random_density(8, seed=910, dims=(4, 2))
    with pytest.raises(ValueError, match="classical on A"):
        CQ_VERIFIERS[name](rho)


def test_perm_decoupling_outside_form_at_full_rank():
    # at d_R = d_A the average distance from omega_E (x) pi_R matches the identity
    d_a = 4
    ch = random_channel(d_a, 2, tp=False, seed=230)
    rep = verify_perm_decoupling_lemma(ch, d_a)
    lhs = 0.0
    phi = max_entangled(d_a)
    target = tensor(ch.env_marginal, np.eye(d_a) / d_a)
    for p in all_perms(d_a):
        conj = tensor(perm_operator(p), np.eye(d_a))
        out, _ = apply_channel_mat(ch, conj @ phi.mat @ conj.T, (d_a, d_a), 0)
        lhs += schatten_norm(out - target, 2) ** 2
    lhs /= factorial(d_a)
    assert abs(lhs - rep.lhs) < 1e-12
    assert abs(lhs - rep.rhs) < 1e-9


def test_quantum_hash():
    prod = DensityOp(tensor(np.eye(4) / 4, random_density(2, seed=240).mat), (4, 2))
    rep = verify_quantum_hash(prod, 2, 2)
    assert rep.passed and rep.lhs < 1e-12
    for k in range(5):
        rho = random_density(8, seed=250 + k, dims=(4, 2))
        rep = verify_quantum_hash(rho, 2, 2)
        assert rep.passed
        assert rep.meta["two_norm_check"].passed
    # CQ inputs reproduce the dedicated CQ hash left side
    rho = random_cq((4, 2), seed=260)
    rep_q = verify_quantum_hash(rho, 2, 2)
    rep_cq = verify_cq_hash(rho, 2, 2)
    assert abs(rep_q.lhs - rep_cq.lhs) < 1e-12


def test_product_difference():
    rho = random_density(6, seed=270, dims=(3, 2))
    dev = product_difference(rho.mat, rho.dims)
    assert abs(np.trace(dev)) < 1e-12
    assert np.abs(partial_trace(dev, (3, 2), [1])).max() < 1e-12


def test_hmin_verifiers_fail_on_unconverged_hmin(monkeypatch):
    # every H_min solve behind a right side must converge, or the record fails
    rho = random_density(8, seed=11, dims=(4, 2))
    cq = random_cq((4, 2), seed=120)
    ch = random_channel(4, 2, tp=True, seed=12)

    def reports():
        return (verify_improved_decoupling(rho, ch, n_samples=20, seed=13),
                verify_cq_hash(cq, 2, 2), verify_quantum_hash(rho, 2, 2))

    for rep in reports():
        assert rep.passed and rep.meta["hmin_bracket"] <= entropy.HMIN_BRACKET_TOL
    monkeypatch.setattr(entropy, "HMIN_BRACKET_TOL", 0.0)
    for rep in reports():
        assert not rep.passed
