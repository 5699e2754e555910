"""Dense complex linear algebra on multipartite operators.

Operators are plain complex ndarrays; a multipartite structure is carried
separately as a tuple of subsystem dimensions (row-major tensor ordering,
first subsystem = slowest index).

Every size, count and index argument in declab passes one integer rule, `whole`: an
int, a numpy integer or a float equal to one (2.0 is 2) is that int; anything else (2.9,
NaN, None, "2", 1j), or an integer out of range, raises a ValueError naming the argument.
Every operator argument passes one rule per property it needs, each one function with one
tolerance: `require_finite`, `require_hermitian` (HERM_RTOL) and `require_psd` (PSD_TOL).
"""

from __future__ import annotations

import numpy as np

HERM_RTOL = 1e-10      # relative Hermiticity tolerance
PSD_TOL = 1e-10        # relative tolerance on a negative eigenvalue
PINV_RCOND = 1e-12     # eigenvalue cutoff for pseudo-inverse powers, relative to lambda_max


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left factor slowest."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def whole(x, name: str, low: int, high: int | None = None) -> int:
    """x as an int; ValueError, naming it and its range, unless x is an integer in low..high."""
    ok = isinstance(x, (int, np.integer)) or isinstance(x, (float, np.floating)) and x.is_integer()
    if not (ok and low <= x and (high is None or x <= high)):
        span = f"{name} >= {low}" if high is None else f"{low} <= {name} <= {high}"
        got = x if ok else f"{x!r}, not an integer"
        raise ValueError(f"needs {span}, got {name} = {got}")
    return int(x)


def check_dims(mat: np.ndarray, dims) -> tuple[int, ...]:
    dims = tuple(whole(d, f"dims[{i}]", 1) for i, d in enumerate(dims))
    n = int(np.prod(dims))
    if mat.shape != (n, n):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
    return dims


def _hermitian_mask(mat: np.ndarray) -> np.ndarray:
    """Per matrix of a stack: Hermitian within HERM_RTOL times its largest entry (at least 1)."""
    scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1), initial=0.0))
    skew = np.abs(mat - mat.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    return skew <= HERM_RTOL * scale


def require_finite(mat, what: str) -> np.ndarray:
    """mat as an array, after checking that every entry is finite."""
    mat = np.asarray(mat)
    if not np.isfinite(mat).all():
        raise ValueError(f"{what} has a non-finite entry")
    return mat


def require_hermitian(mat, what: str = "operator") -> np.ndarray:
    """mat as a complex array, after `require_finite` and a check that it, or every
    matrix of a stack, is Hermitian within HERM_RTOL times its own largest entry."""
    mat = require_finite(np.asarray(mat, dtype=complex), what)
    if not _hermitian_mask(mat).all():
        raise ValueError(f"{what} is not Hermitian within tolerance")
    return mat


def require_psd(w: np.ndarray, what: str = "operator") -> np.ndarray:
    """w, the ascending eigenvalues of a matrix or of every matrix of a stack, after
    checking that each smallest is at least -PSD_TOL times its own largest (at least 1)."""
    low = w[..., :1]
    bad = low < -PSD_TOL * np.maximum(1.0, w[..., -1:])
    if bad.any():
        raise ValueError(f"{what} is not PSD within tolerance: min eigenvalue {low[bad].min():.3e}")
    return w


def partial_trace(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in `keep` (indices into dims)."""
    dims = check_dims(mat, dims)
    keep = sorted({whole(k, "keep", 0, len(dims) - 1) for k in keep})
    if not keep:
        raise ValueError(f"keep names none of the {len(dims)} subsystems")
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
    order = [whole(o, "order", 0, len(dims) - 1) for o in order]
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

    The 2-norm is the root sum of squared entries (NaN or inf if one is not finite);
    the 1- and inf-norms refuse a non-finite entry and take each matrix's singular
    values from eigvalsh when it is Hermitian (see `require_hermitian`) and from the
    SVD otherwise, so a stack gives, matrix for matrix, the same bits as one call each.
    """
    mat = np.asarray(mat)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError("schatten_norm expects square matrices")
    if p == 2:
        out = np.sqrt((mat.real ** 2 + mat.imag ** 2).sum(axis=(-2, -1)))
    elif p in (1, "inf"):
        herm = _hermitian_mask(require_finite(mat, "operator"))
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
    d = whole(d, "d", 1)
    return np.indices((d,) * 4).reshape(4, d * d, d * d)


def swap_operator(d: int) -> np.ndarray:
    """F = sum_ij |i><j| x |j><i| on a d*d space; F^2 = I and F = F^dagger."""
    i1, i2, j1, j2 = pair_indices(d)
    return ((i1 == j2) & (i2 == j1)).astype(float)


def eig_hermitian(mat: np.ndarray):
    """Eigenvalues (ascending, real) and eigenvector columns of a matrix, or of
    every matrix of a stack over leading axes, that passes `require_hermitian`."""
    require_hermitian(mat)
    return np.linalg.eigh((mat + mat.conj().swapaxes(-1, -2)) / 2)


def mpow(mat: np.ndarray, exponent: float) -> np.ndarray:
    """PSD matrix power of a matrix, or of every matrix of a stack over
    leading axes; negative exponents act as pseudo-inverse on the support.

    Refuses what `eig_hermitian` or `require_psd` refuses. Eigenvalues below PINV_RCOND
    times the largest of their own matrix are exact zeros. A stack gives, matrix for
    matrix, the same bits as one call per matrix.
    """
    w, v = eig_hermitian(mat)
    require_psd(w)
    cutoff = PINV_RCOND * np.maximum(w[..., -1:], 0.0)
    support = w > cutoff
    powered = np.zeros_like(w)
    powered[support] = w[support] ** exponent
    return (v * powered[..., None, :]) @ v.conj().swapaxes(-1, -2)
