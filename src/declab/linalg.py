"""Dense complex linear algebra on multipartite operators.

Operators are plain complex ndarrays; a multipartite structure is carried
separately as a tuple of subsystem dimensions (row-major tensor ordering,
first subsystem = slowest index).
"""

from __future__ import annotations

import numpy as np

HERM_RTOL = 1e-10      # relative Hermiticity tolerance
PINV_RCOND = 1e-12     # eigenvalue cutoff for pseudo-inverse powers, relative to lambda_max


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left factor slowest."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def check_dims(mat: np.ndarray, dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be >= 1, got {dims}")
    n = int(np.prod(dims))
    if mat.shape != (n, n):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
    return dims


def _hermitian_mask(mat: np.ndarray) -> np.ndarray:
    """Per matrix of a stack over leading axes: Hermitian within HERM_RTOL
    times its own largest entry (at least 1)."""
    scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1), initial=0.0))
    skew = np.abs(mat - mat.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    return skew <= HERM_RTOL * scale


def require_hermitian(mat: np.ndarray, what: str = "operator") -> np.ndarray:
    """mat, after checking that it, or every matrix of a stack, is Hermitian
    within HERM_RTOL times its own largest entry."""
    if not _hermitian_mask(mat).all():
        raise ValueError(f"{what} is not Hermitian within tolerance")
    return mat


def partial_trace(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in `keep` (indices into dims)."""
    dims = check_dims(mat, dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep={keep} invalid for {len(dims)} subsystems")
    t = mat.reshape(dims + dims)
    cur = list(dims)
    for i in [i for i in range(len(dims)) if i not in keep][::-1]:
        t = np.trace(t, axis1=i, axis2=i + len(cur))
        cur.pop(i)
    n = int(np.prod(cur))
    return t.reshape(n, n)


def permute_systems(mat: np.ndarray, dims, order) -> np.ndarray:
    """Reorder tensor factors so that new subsystem i is old subsystem order[i]."""
    dims = check_dims(mat, dims)
    order = list(order)
    if sorted(order) != list(range(len(dims))):
        raise ValueError(f"order {order} is not a permutation of subsystems")
    k = len(dims)
    t = mat.reshape(dims + dims)
    t = t.transpose(order + [o + k for o in order])
    n = int(np.prod(dims))
    return t.reshape(n, n)


def schatten_norm(mat: np.ndarray, p):
    """Schatten p-norm, p in {1, 2, 'inf'}, of a square matrix (a float) or of
    every matrix of a stack over leading axes (an array of those axes).

    The 2-norm is the root sum of squared entries. The 1- and inf-norms take
    each matrix's singular values from eigvalsh when that matrix is Hermitian
    within HERM_RTOL times its own largest entry, and from the SVD otherwise,
    so a stack gives, matrix for matrix, the same bits as one call per matrix.
    """
    mat = np.asarray(mat)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError("schatten_norm expects square matrices")
    if p == 2:
        out = np.sqrt((mat.real ** 2 + mat.imag ** 2).sum(axis=(-2, -1)))
    elif p in (1, "inf"):
        herm = _hermitian_mask(mat)
        if herm.all():
            s = np.abs(np.linalg.eigvalsh(mat))
        elif not herm.any():
            s = np.linalg.svd(mat, compute_uv=False)
        else:
            s = np.empty(mat.shape[:-1])
            s[herm] = np.abs(np.linalg.eigvalsh(mat[herm]))
            s[~herm] = np.linalg.svd(mat[~herm], compute_uv=False)
        out = s.sum(axis=-1) if p == 1 else s.max(axis=-1, initial=0.0)
    else:
        raise ValueError(f"unsupported Schatten index {p!r}")
    return float(out) if mat.ndim == 2 else out


def pair_indices(d: int) -> np.ndarray:
    """The grids i1, i2, j1, j2, each (d*d, d*d), of an operator on two d-level
    copies: entry [(i1, i2), (j1, j2)] sits at row i1*d + i2, column j1*d + j2."""
    return np.indices((d,) * 4).reshape(4, d * d, d * d)


def swap_operator(d: int) -> np.ndarray:
    """F = sum_ij |i><j| x |j><i| on a d*d space; F^2 = I and F = F^dagger."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    i1, i2, j1, j2 = pair_indices(d)
    return ((i1 == j2) & (i2 == j1)).astype(float)


def eig_hermitian(mat: np.ndarray):
    """Eigenvalues (ascending, real) and eigenvector columns of a Hermitian
    matrix, or of every matrix of a stack over leading axes."""
    require_hermitian(mat)
    w, v = np.linalg.eigh((mat + mat.conj().swapaxes(-1, -2)) / 2)
    return w, v


def mpow(mat: np.ndarray, exponent: float) -> np.ndarray:
    """PSD matrix power of a matrix, or of every matrix of a stack over
    leading axes; negative exponents act as pseudo-inverse on the support.

    Eigenvalues below PINV_RCOND times the largest eigenvalue of their own
    matrix are treated as exact zeros. Raises ValueError if any matrix is not
    Hermitian within HERM_RTOL of its own largest entry or has an eigenvalue below
    -max(that cutoff, 1e-13). A stack gives, matrix for matrix, the same
    bits as one call per matrix.
    """
    w, v = eig_hermitian(mat)
    cutoff = PINV_RCOND * np.maximum(w[..., -1:], 0.0)
    negative = w[..., :1] < -np.maximum(cutoff, 1e-13)
    if np.count_nonzero(negative):
        raise ValueError("mpow requires a PSD matrix "
                         f"(min eigenvalue {w[..., :1][negative].min():.3e})")
    support = w > cutoff
    powered = np.zeros_like(w)
    powered[support] = w[support] ** exponent
    return (v * powered[..., None, :]) @ v.conj().swapaxes(-1, -2)
