import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declab.linalg import (
    PINV_RCOND,
    eig_hermitian,
    mpow,
    partial_trace,
    permute_systems,
    schatten_norm,
    swap_operator,
    tensor,
)


def rand_complex(rng, d, dd=None):
    return rng.normal(size=(d, dd or d)) + 1j * rng.normal(size=(d, dd or d))


def rand_herm(rng, d):
    m = rand_complex(rng, d)
    return (m + m.conj().T) / 2


def test_tensor_identity():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_diagonal():
    out = tensor(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_tensor_trace_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a, b = rand_complex(rng, 2), rand_complex(rng, 2)
    # oracle: entrywise Kronecker definition
    direct = np.array([[a[i, j] * b[k, l] for j in range(2) for l in range(2)]
                       for i in range(2) for k in range(2)])
    assert np.allclose(tensor(a, b), direct)
    assert np.isclose(np.trace(tensor(a, b)), np.trace(a) * np.trace(b))


def test_partial_trace_product_state():
    rng = np.random.default_rng(0)
    a, b = rand_herm(rng, 3), rand_herm(rng, 2)
    out = partial_trace(tensor(a, b), (3, 2), [0])
    assert np.allclose(out, np.trace(b) * a)


def test_partial_trace_entangled_marginal():
    # marginal of the d=2 maximally entangled state is I/2
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    phi = np.outer(v, v)
    assert np.allclose(partial_trace(phi, (2, 2), [0]), np.eye(2) / 2)
    assert np.allclose(partial_trace(phi, (2, 2), [1]), np.eye(2) / 2)


def test_partial_trace_index_sum_oracle():
    rng = np.random.default_rng(1)
    m = rand_herm(rng, 4)
    out = partial_trace(m, (2, 2), [0])
    oracle = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            oracle[i, j] = sum(m[i * 2 + k, j * 2 + k] for k in range(2))
    assert np.allclose(out, oracle)
    assert np.isclose(np.trace(out), np.trace(m))


def test_partial_trace_linear_and_inverse_to_tensor():
    rng = np.random.default_rng(2)
    a, b = rand_herm(rng, 2), rand_herm(rng, 3)
    m = tensor(a, b)
    assert np.allclose(partial_trace(m, (2, 3), [1]), np.trace(a) * b)
    m2 = 2.0 * m + tensor(rand_herm(rng, 2), rand_herm(rng, 3))
    lhs = partial_trace(m2, (2, 3), [0])
    rhs = 2.0 * partial_trace(m, (2, 3), [0]) + partial_trace(m2 - 2.0 * m, (2, 3), [0])
    assert np.allclose(lhs, rhs)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_schatten_identity(d):
    assert np.isclose(schatten_norm(np.eye(d), 1), d)
    assert np.isclose(schatten_norm(np.eye(d), 2), np.sqrt(d))
    assert np.isclose(schatten_norm(np.eye(d), "inf"), 1.0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_schatten_decoupling_state(d):
    # xi = Phi - pi (x) pi has eigenvalues 1 - 1/d^2 and -1/d^2 (multiplicity d^2-1)
    v = np.zeros(d * d)
    for i in range(d):
        v[i * d + i] = 1
    v /= np.sqrt(d)
    xi = np.outer(v, v) - np.eye(d * d) / d**2
    assert np.isclose(schatten_norm(xi, 2) ** 2, 1 - 1 / d**2)
    assert np.isclose(schatten_norm(xi, 1), 2 * (1 - 1 / d**2))
    assert schatten_norm(xi, 1) ** 2 <= 4.0


@pytest.mark.parametrize("p", [1, 2, "inf"])
def test_schatten_norm_stacks(p):
    # every matrix of a stack over two leading axes, Hermitian or not, gets
    # its own SVD norm
    rng = np.random.default_rng(4)
    gen = rand_complex(rng, 5 * 3 * 4, 4).reshape(5, 3, 4, 4)
    for stack in (gen, (gen + gen.conj().swapaxes(-1, -2)) / 2):
        s = np.linalg.svd(stack, compute_uv=False)
        ref = {1: s.sum(axis=-1), 2: np.sqrt((s ** 2).sum(axis=-1)), "inf": s[..., 0]}[p]
        out = schatten_norm(stack, p)
        assert out.shape == (5, 3)
        assert np.abs(out - ref).max() <= 1e-12 * ref.max()
        assert schatten_norm(stack[2, 1], p) == pytest.approx(ref[2, 1], rel=1e-12)


@pytest.mark.parametrize("p", [1, "inf"])
def test_schatten_norm_mixed_stack_matches_single_calls_bit_for_bit(p):
    # Hermitian members of very different scales beside generic ones: each
    # matrix takes its own eigvalsh or SVD branch
    rng = np.random.default_rng(8)
    mats = [m for scale in (1e-3, 1.0, 40.0) for m in (scale * rand_herm(rng, 4),
                                                       rand_complex(rng, 4))]
    want = [schatten_norm(m, p) for m in mats]
    assert schatten_norm(np.stack(mats), p).tolist() == want
    assert schatten_norm(np.stack(mats).reshape(2, 3, 4, 4), p).tolist() == [want[:3], want[3:]]


def test_swap_operator_small():
    assert np.array_equal(swap_operator(1), np.eye(1))
    f = swap_operator(2)
    expected = np.eye(4)[[0, 2, 1, 3]]
    assert np.array_equal(f, expected)
    assert np.allclose(f @ f, np.eye(4))
    assert np.allclose(f, f.T)


@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_swap_trick(seed, d):
    rng = np.random.default_rng(seed)
    m, n = rand_complex(rng, d), rand_complex(rng, d)
    lhs = np.trace(m @ n)
    rhs = np.trace(tensor(m, n) @ swap_operator(d))
    assert abs(lhs - rhs) < 1e-10 * max(1, abs(lhs))


def test_eig_hermitian_sorted_and_reconstructs():
    w, _ = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])
    w, _ = eig_hermitian(swap_operator(2))
    assert np.allclose(w, [-1.0, 1.0, 1.0, 1.0])
    rng = np.random.default_rng(3)
    m = rand_herm(rng, 5)
    w, v = eig_hermitian(m)
    assert schatten_norm(m - (v * w) @ v.conj().T, 2) <= 1e-10 * schatten_norm(m, 2)


def test_eig_hermitian_rejects_nonhermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_mpow_basics():
    assert np.allclose(mpow(np.eye(3), -0.5), np.eye(3))
    assert np.allclose(mpow(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))


def test_mpow_pseudo_inverse_projector():
    rng = np.random.default_rng(4)
    g = rand_complex(rng, 4, 2)
    rho = g @ g.conj().T          # rank 2
    inv_half = mpow(rho, -0.5)
    proj = inv_half @ rho @ inv_half
    assert np.allclose(proj, mpow(rho, 0.0), atol=1e-9)
    assert np.isclose(np.trace(proj).real, 2.0)


def test_mpow_rejects_negative():
    with pytest.raises(ValueError):
        mpow(np.diag([1.0, -0.5]), 0.5)


def test_stack_is_hermitian_matrix_by_matrix():
    # a skew refused alone is refused beside a matrix of much larger entries
    b = np.array([[0.5, 1e-7], [0.0, 0.5]])
    for mat in (b, np.stack([1e4 * np.eye(2), b])):
        with pytest.raises(ValueError, match="not Hermitian"):
            mpow(mat, 0.5)


def mpow_one(mat, exponent):
    """The single-matrix mpow that the stacked one replaced: the reference
    it must match bit for bit."""
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    lam_max = w[-1] if w.size else 0.0
    cutoff = PINV_RCOND * max(lam_max, 0.0)
    w = np.where(w > cutoff, w, 0.0)
    powered = np.zeros_like(w)
    support = w > 0
    powered[support] = w[support] ** exponent
    return (v * powered) @ v.conj().T


@pytest.mark.parametrize("exponent", [0.5, -0.5, -0.25, 2.0])
def test_mpow_stacks_match_single_matrices_bit_for_bit(exponent):
    rng = np.random.default_rng(9)
    mats = []
    for rank in (1, 2, 4, 4, 3):
        g = rand_complex(rng, 4, rank)
        mats.append(g @ g.conj().T)
    stack = np.stack(mats)
    for mat, got in zip(mats, mpow(stack, exponent)):
        assert np.array_equal(mpow(mat, exponent), mpow_one(mat, exponent))
        assert np.array_equal(got, mpow_one(mat, exponent))
    assert np.array_equal(mpow(stack.reshape(5, 1, 4, 4), exponent),
                          mpow(stack, exponent).reshape(5, 1, 4, 4))
    with pytest.raises(ValueError, match="PSD"):
        mpow(np.stack([mats[0], -mats[1]]), exponent)


def test_permute_systems_roundtrip():
    rng = np.random.default_rng(5)
    m = rand_herm(rng, 24)
    dims = (2, 3, 4)
    out = permute_systems(m, dims, [2, 0, 1])
    back = permute_systems(out, (4, 2, 3), [1, 2, 0])
    assert np.allclose(back, m)
    a, b, c = rand_herm(rng, 2), rand_herm(rng, 3), rand_herm(rng, 4)
    assert np.allclose(permute_systems(tensor(a, b, c), dims, [2, 0, 1]), tensor(c, a, b))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_norm_inequalities_lemma(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    a, b, c = (rand_complex(rng, d) for _ in range(3))
    abc = a @ b @ c
    tol = 1e-10
    assert schatten_norm(abc, "inf") <= (schatten_norm(a, "inf") * schatten_norm(b, "inf")
                                         * schatten_norm(c, "inf")) + tol
    assert schatten_norm(abc, 1) <= (schatten_norm(a, "inf") * schatten_norm(b, 1)
                                     * schatten_norm(c, "inf")) + tol
    assert schatten_norm(abc, 2) <= (schatten_norm(a, "inf") * schatten_norm(b, 2)
                                     * schatten_norm(c, "inf")) + tol
