"""Dense complex linear algebra on multipartite operators.

Operators are plain complex ndarrays; a multipartite structure is carried
separately as a tuple of subsystem dimensions (row-major tensor ordering,
first subsystem = slowest index).
"""

from __future__ import annotations

import numpy as np

HERM_RTOL = 1e-10      # relative Hermiticity tolerance
PINV_RCOND = 1e-12     # eigenvalue cutoff for pseudo-inverse powers, relative to lambda_max


def close(a: float, b: float, rtol: float = 1e-10, atol: float = 1e-12) -> bool:
    """Scalar comparison with tolerance max(atol, rtol*scale)."""
    return abs(a - b) <= max(atol, rtol * max(1.0, abs(a), abs(b)))


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


def is_hermitian(mat: np.ndarray, rtol: float = HERM_RTOL) -> bool:
    scale = max(1.0, np.abs(mat).max()) if mat.size else 1.0
    return bool(np.abs(mat - mat.conj().T).max() <= rtol * scale)


def require_hermitian(mat: np.ndarray, what: str = "operator") -> np.ndarray:
    if not is_hermitian(mat):
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


def schatten_norm(mat: np.ndarray, p) -> float:
    """Schatten p-norm for p in {1, 2, 'inf'}."""
    mat = np.asarray(mat)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("schatten_norm expects a square matrix")
    if p == 2:
        return float(np.sqrt(np.trace(mat.conj().T @ mat).real))
    s = np.linalg.svd(mat, compute_uv=False)
    if p == 1:
        return float(s.sum())
    if p in (np.inf, "inf"):
        return float(s[0]) if s.size else 0.0
    raise ValueError(f"unsupported Schatten index {p!r}")


def swap_operator(d: int) -> np.ndarray:
    """F = sum_ij |i><j| x |j><i| on a d*d space; F^2 = I and F = F^dagger."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    F = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            F[i * d + j, j * d + i] = 1.0
    return F


def eig_hermitian(mat: np.ndarray):
    """Eigenvalues (ascending, real) and eigenvector columns of a Hermitian matrix."""
    require_hermitian(mat)
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    return w, v


def mpow(mat: np.ndarray, exponent: float) -> np.ndarray:
    """PSD matrix power; negative exponents act as pseudo-inverse on the support.

    Eigenvalues below PINV_RCOND * lambda_max are treated as exact zeros.
    """
    w, v = eig_hermitian(mat)
    lam_max = w[-1] if w.size else 0.0
    cutoff = PINV_RCOND * max(lam_max, 0.0)
    if w.size and w[0] < -max(cutoff, 1e-13):
        raise ValueError(f"mpow requires a PSD matrix (min eigenvalue {w[0]:.3e})")
    w = np.where(w > cutoff, w, 0.0)
    powered = np.zeros_like(w)
    support = w > 0
    powered[support] = w[support] ** exponent
    return (v * powered) @ v.conj().T


def support_projector(mat: np.ndarray) -> np.ndarray:
    w, v = eig_hermitian(mat)
    cutoff = PINV_RCOND * max(w[-1], 0.0) if w.size else 0.0
    keep = w > cutoff
    return (v[:, keep]) @ v[:, keep].conj().T
