"""Quantum states and channels in the Choi representation.

A channel T from dimension d_in to d_out is stored as its Choi operator on
(input copy, output), i.e. (I (x) T) applied to the maximally entangled state,
and is always applied through the inverse Choi formula
T(X) = d_in * tr_in[(X^T (x) I) choi].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    check_dims,
    eig_hermitian,
    pair_indices,
    partial_trace,
    require_hermitian,
    require_psd,
    tensor,
    whole,
)

TRACE_TOL = 1e-10


@dataclass(frozen=True)
class DensityOp:
    """PSD sub-normalized operator with subsystem dimensions."""

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", check_dims(self.mat, self.dims))
        require_hermitian(self.mat, "density operator")
        w = require_psd(np.linalg.eigvalsh(self.mat), "density operator")
        if w.sum() > 1 + TRACE_TOL:
            raise ValueError(f"trace {w.sum():.12f} exceeds 1")

    def marginal(self, keep) -> np.ndarray:
        return partial_trace(self.mat, self.dims, keep)


@dataclass(frozen=True)
class ChoiChannel:
    """CP map stored by its Choi operator on (input copy, output)."""

    choi: np.ndarray
    d_in: int
    d_out: int
    tp: bool = field(default=False)

    def __post_init__(self):
        for name in ("d_in", "d_out"):
            object.__setattr__(self, name, whole(getattr(self, name), name, 1))
        check_dims(self.choi, (self.d_in, self.d_out))
        require_hermitian(self.choi, "Choi operator")
        require_psd(np.linalg.eigvalsh(self.choi), "Choi operator")
        if self.tp:
            m = partial_trace(self.choi, (self.d_in, self.d_out), [0])
            if np.abs(m - np.eye(self.d_in) / self.d_in).max() > TRACE_TOL:
                raise ValueError("tp flag set but input marginal of Choi is not maximally mixed")

    @property
    def env_marginal(self) -> np.ndarray:
        """Output marginal of the Choi operator; equals T(pi_in)."""
        return partial_trace(self.choi, (self.d_in, self.d_out), [1])

    def require_input(self, d: int):
        """Raise ValueError unless the channel's input A has d levels."""
        if self.d_in != d:
            raise ValueError(f"channel input dimension {self.d_in} does not match d_A = {d}")


def max_entangled(d: int) -> DensityOp:
    """Rank-1 projector onto (1/sqrt d) sum_i |ii>."""
    d = whole(d, "d", 1)
    v = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    return DensityOp(np.outer(v, v.conj()), (d, d))


def classical_correlated(d: int) -> DensityOp:
    """Perfectly correlated classical state (1/d) sum_i |ii><ii|."""
    i1, i2, j1, j2 = pair_indices(d)
    m = ((i1 == i2) & (i1 == j1) & (j1 == j2)) / d
    return DensityOp(m.astype(complex), (d, d))


def cq_decoupling_state(d: int) -> np.ndarray:
    """Classical analogue: correlated classical state minus the fully mixed one."""
    d = whole(d, "d", 2)
    return classical_correlated(d).mat - np.eye(d * d, dtype=complex) / d**2


def apply_channel_mat(ch: ChoiChannel, mat: np.ndarray, dims, subsystem: int = 0):
    """Apply the channel on one subsystem of an arbitrary operator.

    Returns (new matrix, new dims). Works for any (not necessarily PSD)
    input, such as a difference operator. The verifiers apply channels
    through the batched kernels of `_groupavg`, so no check of the library
    calls it: it stays as the tests' reference and as a name the benchmark
    traces.
    """
    dims = check_dims(mat, dims)
    k = len(dims)
    ch.require_input(dims[subsystem])
    w4 = ch.choi.reshape(ch.d_in, ch.d_out, ch.d_in, ch.d_out)
    # kernel K[e,e',b,a] so that T(X)[e,e'] = sum_ab K[e,e',b,a] X[b,a]
    kernel = ch.d_in * w4.transpose(1, 3, 0, 2)
    t = np.tensordot(kernel, mat.reshape(dims + dims), axes=([2, 3], [subsystem, k + subsystem]))
    t = np.moveaxis(t, [0, 1], [subsystem, k + subsystem])
    new_dims = list(dims)
    new_dims[subsystem] = ch.d_out
    n = int(np.prod(new_dims))
    return t.reshape(n, n), tuple(new_dims)


def pinch_mat(mat: np.ndarray, dims) -> np.ndarray:
    """Pinching on the first subsystem in the computational basis: every
    block off that subsystem's diagonal set to zero."""
    dims = check_dims(mat, dims)
    d, rest = dims[0], mat.shape[0] // dims[0]
    return (mat.reshape(d, rest, d, rest) * np.eye(d)[:, None, :, None]).reshape(mat.shape)


def is_cq(rho: DensityOp) -> bool:
    """True iff all off-diagonal blocks on the first subsystem vanish (to 1e-10)."""
    return bool(np.abs(rho.mat - pinch_mat(rho.mat, rho.dims)).max() <= 1e-10)


def random_density(d: int, rank: int | None = None, seed=0, dims=None) -> DensityOp:
    """Normalized Wishart state G G^dagger / tr, deterministic per seed."""
    d = whole(d, "d", 1)
    rank = whole(d if rank is None else rank, "rank", 1, d)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityOp(m, dims if dims is not None else (d,))


def random_cq(dims, seed=0) -> DensityOp:
    """Random trace-1 state that is classical on the first subsystem: the
    pinching of a `random_density` state there."""
    dims = tuple(whole(d, f"dims[{i}]", 1) for i, d in enumerate(dims))
    rho = random_density(int(np.prod(dims)), seed=seed, dims=dims)
    return DensityOp(pinch_mat(rho.mat, rho.dims), rho.dims)


def random_channel(d_in: int, d_out: int, tp: bool = True, seed=0) -> ChoiChannel:
    """Random CP map; trace-1 Choi, or projected to trace preserving."""
    d_in, d_out = whole(d_in, "d_in", 1), whole(d_out, "d_out", 1)
    rng = np.random.default_rng(seed)
    n = d_in * d_out
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w = g @ g.conj().T
    if tp:
        m = partial_trace(w, (d_in, d_out), [0])
        ev, vec = eig_hermitian(m)
        m_isqrt = (vec * (1 / np.sqrt(ev))) @ vec.conj().T
        s = tensor(m_isqrt, np.eye(d_out))
        return ChoiChannel(s @ w @ s / d_in, d_in, d_out, tp=True)
    return ChoiChannel(w / np.trace(w).real, d_in, d_out, tp=False)
