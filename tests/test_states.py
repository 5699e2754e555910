import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declab.linalg import partial_trace, schatten_norm, tensor
from declab.states import (
    ChoiChannel,
    DensityOp,
    apply_channel_mat,
    classical_correlated,
    cq_decoupling_state,
    is_cq,
    max_entangled,
    pinch_mat,
    random_channel,
    random_cq,
    random_density,
)
from declab.symgroup import perm_operator


def test_max_entangled():
    assert np.allclose(max_entangled(1).mat, [[1.0]])
    phi = max_entangled(2).mat
    for r in (0, 3):
        for c in (0, 3):
            assert np.isclose(phi[r, c], 0.5)
    assert np.isclose(np.abs(phi).sum(), 2.0)   # only those four entries
    for d in (2, 3, 4):
        rho = max_entangled(d)
        assert np.allclose(rho.marginal([0]), np.eye(d) / d)
        assert np.allclose(rho.marginal([1]), np.eye(d) / d)


def test_classical_correlated():
    t = classical_correlated(2).mat
    assert np.allclose(t, np.diag([0.5, 0, 0, 0.5]))
    # pinching the entangled state gives the classically correlated one
    phi = max_entangled(3)
    assert np.allclose(pinch_mat(phi.mat, phi.dims), classical_correlated(3).mat)
    for d in (2, 4):
        rho = classical_correlated(d)
        assert np.allclose(rho.marginal([0]), np.eye(d) / d)
        assert np.allclose(rho.marginal([1]), np.eye(d) / d)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_decoupling_state(d):
    xi = max_entangled(d).mat - np.eye(d * d) / d**2
    assert abs(np.trace(xi)) < 1e-14
    assert np.isclose(schatten_norm(xi, 2) ** 2, 1 - 1 / d**2)
    assert np.abs(partial_trace(xi, (d, d), [0])).max() < 1e-14
    assert np.abs(partial_trace(xi, (d, d), [1])).max() < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cq_decoupling_state(d):
    lam = cq_decoupling_state(d)
    if d == 2:
        assert np.allclose(lam, np.diag([0.25, -0.25, -0.25, 0.25]))
    assert np.abs(partial_trace(lam, (d, d), [0])).max() < 1e-14
    assert np.abs(partial_trace(lam, (d, d), [1])).max() < 1e-14
    assert np.isclose(schatten_norm(lam, 2) ** 2, (d - 1) / d**2)


def test_apply_channel_identity_and_trace():
    rho = random_density(6, seed=0, dims=(3, 2))
    ident = ChoiChannel(max_entangled(3).mat, 3, 3, tp=True)
    assert np.allclose(apply_channel_mat(ident, rho.mat, rho.dims, 0)[0], rho.mat)
    # full trace: Choi = pi_in (output dimension 1)
    tracer = ChoiChannel(np.eye(3) / 3, 3, 1, tp=True)
    out, dims = apply_channel_mat(tracer, rho.mat, rho.dims, 0)
    assert dims == (1, 2)
    assert np.allclose(out, rho.marginal([1]))


def test_apply_channel_partial_trace_channel():
    # tr_2 : 6 = 2 x 3 -> 2, whose Choi operator is the partial trace of Phi_6
    choi = partial_trace(max_entangled(6).mat, (6, 2, 3), [0, 1])
    ch = ChoiChannel(choi, 6, 2, tp=True)
    rho = random_density(12, seed=2, dims=(6, 2))
    out, _ = apply_channel_mat(ch, rho.mat, rho.dims, 0)
    oracle = partial_trace(rho.mat, (2, 3, 2), [0, 2])
    assert np.allclose(out, oracle)


def test_apply_channel_second_subsystem():
    rho = random_density(6, seed=3, dims=(2, 3))
    ch = random_channel(3, 2, tp=True, seed=4)
    out, dims = apply_channel_mat(ch, rho.mat, rho.dims, 1)
    assert dims == (2, 2)
    # oracle: apply on a reordered copy and reorder back
    from declab.linalg import permute_systems

    flipped = permute_systems(rho.mat, (2, 3), [1, 0])
    out2, _ = apply_channel_mat(ch, flipped, (3, 2), 0)
    assert np.allclose(out, permute_systems(out2, (2, 2), [1, 0]))


def test_choi_of_state_round_trip():
    # a bipartite state read on (input copy, output) is the Choi operator of a map
    phi = max_entangled(3)
    for seed, (d_a, d_r) in enumerate([(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 4)]):
        rho = random_density(d_a * d_r, seed=10 + seed, dims=(d_a, d_r))
        ch = ChoiChannel(rho.mat, d_a, d_r)
        back = apply_channel_mat(ch, max_entangled(d_a).mat, (d_a, d_a), 1)[0]
        assert np.abs(back - rho.mat).max() < 1e-10
        # the map sends the maximally mixed input to the R marginal
        pi_out, _ = apply_channel_mat(ch, np.eye(d_a) / d_a, (d_a,), 0)
        assert np.allclose(pi_out, rho.marginal([1]))
    # identity case
    ch = ChoiChannel(phi.mat, 3, 3)
    rho2 = random_density(3, seed=40)
    assert np.allclose(apply_channel_mat(ch, rho2.mat, (3,), 0)[0], rho2.mat)


def test_choi_of_state_product_is_constant_map():
    sigma = random_density(2, seed=5)
    ch = ChoiChannel(tensor(np.eye(3) / 3, sigma.mat), 3, 2)
    x = random_density(3, seed=6).mat
    out, _ = apply_channel_mat(ch, x, (3,), 0)
    assert np.allclose(out, np.trace(x) * sigma.mat)


def test_pinched_choi_is_the_dephased_channel():
    # pinching a channel's Choi operator on its input copy gives the Choi
    # operator of the channel that first dephases its input, again trace
    # preserving (ChoiChannel checks it)
    ident = ChoiChannel(max_entangled(3).mat, 3, 3, tp=True)
    assert np.allclose(pinch_mat(ident.choi, (3, 3)), classical_correlated(3).mat)
    ch = random_channel(3, 2, tp=True, seed=7)
    cl = ChoiChannel(pinch_mat(ch.choi, (3, 2)), 3, 2, tp=True)
    # environment marginals agree
    assert np.allclose(cl.env_marginal, ch.env_marginal)
    # on classical inputs the classicalized map acts identically
    for seed in range(5):
        diag = np.diag(np.random.default_rng(seed).uniform(size=3))
        a, _ = apply_channel_mat(ch, diag, (3,), 0)
        b, _ = apply_channel_mat(cl, diag, (3,), 0)
        assert np.abs(a - b).max() < 1e-10
    # and on CQ bipartite states
    cq = random_cq((3, 2), seed=8)
    a, _ = apply_channel_mat(ch, cq.mat, cq.dims, 0)
    b, _ = apply_channel_mat(cl, cq.mat, cq.dims, 0)
    assert np.abs(a - b).max() < 1e-10


def test_classicalize_state():
    diag = np.diag([0.5, 0.2, 0.3])
    assert np.allclose(pinch_mat(diag, (3,)), diag)
    assert np.allclose(pinch_mat(max_entangled(2).mat, (2, 2)),
                       classical_correlated(2).mat)
    for seed in range(20):
        rho = random_density(6, seed=100 + seed, dims=(3, 2))
        pinched = DensityOp(pinch_mat(rho.mat, rho.dims), rho.dims)
        # pinching cannot increase purity
        assert (np.trace(pinched.mat @ pinched.mat).real
                <= np.trace(rho.mat @ rho.mat).real + 1e-12)
        assert is_cq(pinched)
        assert np.isclose(np.trace(pinched.mat).real, np.trace(rho.mat).real)


def test_is_cq():
    assert is_cq(classical_correlated(3))
    assert not is_cq(max_entangled(2))


@given(st.permutations(list(range(4))))
@settings(max_examples=24, deadline=None)
def test_cq_preserved_by_classical_permutations(p):
    rho = random_cq((4, 2), seed=11)
    conj = tensor(perm_operator(p), np.eye(2))
    moved = DensityOp(conj @ rho.mat @ conj.T, rho.dims)
    assert is_cq(moved)


def test_random_density_determinism_and_rank():
    a = random_density(5, rank=2, seed=42)
    b = random_density(5, rank=2, seed=42)
    assert np.array_equal(a.mat, b.mat)
    w = np.linalg.eigvalsh(a.mat)
    assert np.sum(w > 1e-10) == 2
    assert np.isclose(np.trace(a.mat).real, 1.0)


def test_random_channel_invariants():
    tp = random_channel(3, 2, tp=True, seed=1)
    assert tp.tp
    marg = partial_trace(tp.choi, (3, 2), [0])
    assert np.abs(marg - np.eye(3) / 3).max() < 1e-10
    cp = random_channel(3, 2, tp=False, seed=1)
    assert np.isclose(np.trace(cp.choi).real, 1.0)
    assert np.array_equal(random_channel(3, 2, tp=True, seed=9).choi,
                          random_channel(3, 2, tp=True, seed=9).choi)
    w = np.linalg.eigvalsh(cp.choi)
    assert w[0] > -1e-12


def test_density_op_validation():
    with pytest.raises(ValueError):
        DensityOp(np.diag([1.0, 0.5]), (2,))          # trace above one
    with pytest.raises(ValueError):
        DensityOp(np.diag([0.5, -0.2]), (2,))         # negative eigenvalue
    with pytest.raises(ValueError):
        ChoiChannel(np.diag([0.5, 0.5, 0.0, 0.0]), 2, 2, tp=True)   # not TP


def test_pinch_mat_first_subsystem():
    # every block off the first subsystem's diagonal is zeroed, the rest kept
    for dims in [(2, 3), (3, 2), (2, 2, 2)]:
        n = int(np.prod(dims))
        rho = random_density(n, seed=13, dims=dims)
        blocks = rho.mat.reshape(dims[0], n // dims[0], dims[0], n // dims[0])
        expect = np.zeros_like(blocks)
        for a in range(dims[0]):
            expect[a, :, a] = blocks[a, :, a]
        assert np.array_equal(pinch_mat(rho.mat, dims), expect.reshape(n, n))
