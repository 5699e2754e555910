"""Single-shot entropies and distance measures for sub-normalized states.

All entropies are in bits. Each takes a finite Hermitian matrix of positive
trace on A x B and its dimensions (d_A, d_B), conditions on B and runs on
rho / tr rho, so H(c rho) = H(rho) - log2 c at any trace c. The conditional
min-entropy comes from a small barrier solver for the one SDP shape needed
here, min{tr z : rho <= I (x) z, z >= 0}, with one log-det barrier on the
block-diagonal I_{A+1} (x) z - (rho (+) 0): a Newton step takes one inverse,
one Hessian matmul and one Cholesky guard. It is tested up to d_A = d_B = 8
(total dimension 64); a dual witness from its central path brackets the
optimum. The optimized conditional collision entropy comes from
exponentiated-gradient (mirror) descent over density matrices,
which carries a Frank-Wolfe bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (PINV_RCOND, check_dims, eig_hermitian, mpow, require_finite,
                     require_hermitian, schatten_norm)


@dataclass(frozen=True)
class EntropyResult:
    value: float                 # bits
    optimizer: np.ndarray        # normalized achieving sigma/zeta on the conditioning system
    meta: dict | None = None     # None for the fixed-sigma H2


def _matdims(state, dims, what: str):
    """The matrix and the two dimensions of a bipartite state of positive
    trace, after checking that the matrix is finite and Hermitian."""
    dims = check_dims(np.asarray(state), dims)
    mat = require_hermitian(state, f"{what} state")
    if len(dims) != 2:
        raise ValueError(f"{what} expects a bipartite state")
    if np.trace(mat).real <= 0:
        raise ValueError(f"{what} of a zero operator is undefined")
    return mat, dims


# ---------------------------------------------------------------------------
# barrier solver for min tr z  s.t.  I_A (x) z - rho >= 0,  z >= 0
# ---------------------------------------------------------------------------

HMIN_PATH_TOL = 1e-10       # follow the central path until nu / t is below this
HMIN_BRACKET_TOL = 1e-6     # widest certified bracket, in bits, that counts as converged


def _barrier_mat(z: np.ndarray, rho: np.ndarray, d_a: int) -> np.ndarray:
    """I_{A+1} (x) z - (rho (+) 0): blocks S = I_A (x) z - rho and z, equal to np.kron's."""
    d_b = z.shape[0]
    out = np.zeros(((d_a + 1) * d_b, (d_a + 1) * d_b), dtype=complex)
    for k in range(0, (d_a + 1) * d_b, d_b):
        out[k:k + d_b, k:k + d_b] = z
    out[:d_a * d_b, :d_a * d_b] -= rho
    return out


def _newton_system(m_inv: np.ndarray, t: float, d_a: int, d_b: int):
    """Gradient t I - sum_a W_aa and d_B^2 x d_B^2 Hessian X -> sum_ac W_ac X W_ca of
    t tr z - log det M, with W_ac the d_B x d_B blocks of M^-1 (a, c = 0..d_A)."""
    w = m_inv.reshape(d_a + 1, d_b, d_a + 1, d_b).transpose(0, 2, 1, 3)
    p = w.reshape(-1, d_b * d_b)
    grad = -p[::d_a + 2].sum(axis=0)          # rows (a, a) of p
    grad[::d_b + 1] += t
    hess = (p.T @ w.transpose(1, 0, 3, 2).reshape(-1, d_b * d_b)).reshape((d_b,) * 4)
    return grad.reshape(d_b, d_b), hess.transpose(0, 2, 1, 3).reshape(d_b * d_b, -1)


def _sdp_conditional(rho: np.ndarray, d_a: int, d_b: int):
    """Solve min{tr z : I_A (x) z >= rho, z >= 0} and certify the optimum from below.

    Path-following barrier on t tr z - log det M, M = `_barrier_mat`, whose
    log det is the two barrier terms log det S + log det z in one; t grows
    20-fold per centering until nu / t < HMIN_PATH_TOL.

    The barrier is self-concordant, so damped Newton needs no line search:
    with lambda^2 = -<grad, dz> the squared Newton decrement, the step is 1
    when lambda <= 1/4 and 1 / (1 + lambda) otherwise, which keeps M positive
    definite in exact arithmetic. One Cholesky of M per trial step, halving the
    step until it and the inverse of M succeed, is a floating-point guard: M is
    positive definite exactly when S and z are, so the returned z is strictly
    feasible and `value` sound. That inverse serves the next step's
    `_newton_system` and the witness. A centering ends at lambda^2 < 1e-6, or
    early when a step cannot be computed or no trial step passes the guard.

    After each centering, Y = S^-1 / lambda_max(tr_A S^-1), from the S block of
    M^-1, is feasible for the dual max{tr(rho Y) : tr_A Y <= I, Y >= 0} at any
    z, so tr(rho Y) <= min tr z <= tr z. Returns (tr z, z, Y, steps) with the Y
    of largest tr(rho Y) over the path (None if M^-1 was never formed; near the
    end S is close to singular and the last Y alone can be a poor witness).

    The tolerances are absolute, so the path runs on rho / tr rho and z is
    scaled back; Y is feasible for every scale, so the bracket is as tight at
    any trace as at trace 1.
    """
    scale = float(np.trace(rho).real)
    rho = rho / scale
    lam = float(np.linalg.eigvalsh(rho)[-1])
    z = (max(lam, 0.0) + max(1.0, abs(lam))) * np.eye(d_b, dtype=complex)
    n, nu = d_a * d_b, (d_a + 1) * d_b
    t = max(1.0, nu / max(lam * d_b, 1e-2))
    y, y_val, steps = None, -np.inf, 0
    try:
        m_inv = np.linalg.inv(_barrier_mat(z, rho, d_a))
    except np.linalg.LinAlgError:
        m_inv = None
    while m_inv is not None:
        for _ in range(60):
            grad, hess = _newton_system(m_inv, t, d_a, d_b)
            try:
                dz = np.linalg.solve(hess, -grad.reshape(-1)).reshape(d_b, d_b)
            except np.linalg.LinAlgError:
                break
            dz = (dz + dz.conj().T) / 2
            dec = -float(np.vdot(grad, dz).real)
            if not math.isfinite(dec) or dec <= 0:
                break
            step = 1.0 if dec <= 1 / 16 else 1.0 / (1.0 + math.sqrt(dec))
            for _ in range(60):
                z_new = z + step * dz
                m_new = _barrier_mat(z_new, rho, d_a)
                try:
                    np.linalg.cholesky(m_new)
                    inv_new = np.linalg.inv(m_new)
                    break
                except np.linalg.LinAlgError:
                    step *= 0.5
            else:
                break
            z, m_inv = z_new, inv_new
            steps += 1
            if dec < 1e-6:
                break
        cand = (m_inv[:n, :n] + m_inv[:n, :n].conj().T) / 2
        cand /= np.linalg.eigvalsh(np.einsum('aiaj->ij', cand.reshape(d_a, d_b, d_a, d_b)))[-1]
        cand_val = float(np.vdot(cand, rho).real)
        if cand_val > y_val:
            y, y_val = cand, cand_val
        if nu / t < HMIN_PATH_TOL:
            break
        t *= 20.0
    z = scale * z
    return float(np.trace(z).real), z, y, steps


def h_min_cond(state, dims) -> EntropyResult:
    """Conditional min-entropy H_min(A|B) of the matrix `state` on dims = (d_A, d_B).

    Solves min{tr z : rho_AB <= I_A (x) z, z >= 0}, whose optimum is
    2^-H_min. `value` = -log2 tr z at the strictly feasible z returned, the
    lower end of the bracket, so every bound built from 2^-H_min stays sound.
    `meta` holds `hmin_upper` = -log2 tr(rho Y) for the dual witness Y, the
    certified upper end (inf if no Y was formed); `status`, "converged" when
    the bracket [value, hmin_upper] is at most HMIN_BRACKET_TOL bits wide and
    "wide" otherwise; `iterations`, the Newton steps over the whole path; and
    `primal_slack`, the smallest eigenvalue of I (x) z - rho.
    """
    mat, (d_a, d_b) = _matdims(state, dims, "h_min_cond")
    val, z, y, steps = _sdp_conditional(mat, d_a, d_b)
    value = float(-np.log2(val))
    upper = float(-np.log2(np.vdot(y, mat).real)) if y is not None else np.inf
    meta = {
        "primal_slack": float(np.linalg.eigvalsh(_barrier_mat(z, mat, d_a)[:-d_b, :-d_b])[0]),
        "hmin_upper": upper,
        "iterations": steps,
        "status": "converged" if upper - value <= HMIN_BRACKET_TOL else "wide",
    }
    return EntropyResult(value=value, optimizer=z / np.trace(z).real, meta=meta)


def _h2_value(mat: np.ndarray, dims, sigma: np.ndarray) -> float:
    """tr[((I (x) sigma^-1/2) rho)^2] of a trace-1 rho = mat, the quantity inside -log2."""
    d_a, d_b = dims
    blocks = mat.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3)
    w = np.matmul(mpow(sigma, -0.5), blocks)       # S rho_ab blockwise
    return float(np.einsum('abij,baji->', w, w).real)


# ---------------------------------------------------------------------------
# mirror descent for the optimized conditional collision entropy
# ---------------------------------------------------------------------------

H2_GAP_RTOL = 1e-11     # stop once the Frank-Wolfe gap is this fraction of the objective
H2_MAX_ITER = 500
_H2_NOISE = 64 * np.finfo(float).eps    # relative change of the objective round-off can fake
_H2_MIN_STEP = 1e-12    # smallest log-space step, eta * spread(G), before giving up


def _h2_terms(blocks: np.ndarray, w: np.ndarray, u: np.ndarray):
    """Objective, gradient, Frank-Wolfe gap and gradient spread at sigma = u diag(w) u^dag.

    `blocks[a, b]` is the (a, b) block of rho / sqrt(tr rho) on the support of
    rho_B, so the objective is f = tr[rho (I (x) S) rho (I (x) S)] / tr rho with
    S = sigma^-1/2. Its gradient is G = 2 Dg(sigma)[tr_A(rho (I (x) S) rho)] / tr rho,
    where Dg is the Daleckii-Krein divided difference of g(x) = x^-1/2: a
    Hadamard product in sigma's eigenbasis, where G is returned.
    """
    rb = u.conj().T @ blocks @ u
    s = w ** -0.5
    m = np.einsum('abij,bajk->ik', rb * s, rb)
    f = float(s @ m.diagonal().real)
    r = np.sqrt(w)
    # (g(x) - g(y)) / (x - y) = -1 / (sqrt(xy) (sqrt(x) + sqrt(y))), = g'(x) at x = y
    grad = -2.0 * m / (np.outer(r, r) * (r[:, None] + r[None, :]))
    lam = np.linalg.eigvalsh(grad)
    # f is homogeneous of degree -1 in sigma, so tr(G sigma) = -f
    return f, grad, -f - lam[0], lam[-1] - lam[0]


def _h2_mirror_descent(blocks: np.ndarray, w: np.ndarray, u: np.ndarray):
    """Minimize the objective of `_h2_terms` over density matrices.

    The step is sigma <- exp(log sigma - eta G) / tr, taken in sigma's
    eigenbasis. eta halves until the objective decreases and grows after each
    accepted step. Within round-off of the objective (f - f* is then about
    gap^2), a step is accepted when it shrinks the gap instead. The objective
    is convex, so the gap tr(G sigma) - lambda_min(G) bounds f - min f.
    Returns (w, u, f, gap, iterations, status).
    """
    f, grad, gap, spread = _h2_terms(blocks, w, u)
    eta, it = None, 0
    while gap > H2_GAP_RTOL * f:
        if it == H2_MAX_ITER:
            return w, u, f, gap, it, "max_iter"
        eta = 1.0 / spread if eta is None else 1.25 * eta
        tol = _H2_NOISE * f
        while True:
            lam, v = np.linalg.eigh(np.diag(np.log(w)) - eta * grad)
            w_new = np.exp(lam - lam[-1])
            w_new /= w_new.sum()
            if w_new[0] > 0:      # an underflow to 0 would leave the support
                trial = _h2_terms(blocks, w_new, u @ v)
                if trial[0] < f - tol or (trial[0] <= f + tol and trial[2] < gap):
                    break
            eta /= 2
            if eta * spread < _H2_MIN_STEP:
                return w, u, f, gap, it, "stalled"
        w, u = w_new, u @ v
        f, grad, gap, spread = trial
        it += 1
    return w, u, f, gap, it, "converged"


def h2_cond(state, dims, *, optimize: bool = False, zeta_start=None,
            seed=None) -> EntropyResult:
    """Conditional collision entropy H2(A|B) of the matrix `state` on dims = (d_A, d_B).

    Without `optimize`, sigma is the conditioning marginal, and the value
    lower-bounds the optimum, which keeps every decoupling upper bound valid.
    `optimize=True` maximizes over sigma by mirror descent, started at the
    marginal and confined to its support. The value is the best of the
    marginal, `zeta_start` (the min-entropy optimizer, when the caller has
    solved that SDP; its support must contain the marginal's) and the final
    iterate, each scored exactly, so it is never below the fixed-sigma value
    nor, given zeta_start, below H_min. It is the exact score at a feasible
    sigma, off only by the relative round-off of `_h2_value`, which is far
    inside `verify.BOUND_TOL`, so it needs no certificate of its own. `meta`
    holds the Frank-Wolfe gap `fw_gap` of the objective on rho / tr rho, the
    certified upper end `h2_upper` of the optimum, the iteration count and the
    solver `status` (converged, max_iter or stalled). `seed` is unused; it is
    accepted because benchmark/workloads.py still passes it.
    """
    mat, dims = _matdims(state, dims, "h2_cond")
    d_a, d_b = dims
    scale = float(np.trace(mat).real)
    shift = math.log2(scale)
    mat = mat / scale
    rho_b = np.trace(mat.reshape(d_a, d_b, d_a, d_b), axis1=0, axis2=2)
    sigma0 = rho_b / np.trace(rho_b).real
    best_sigma, best_val = sigma0, _h2_value(mat, dims, sigma0)
    if not optimize:
        return EntropyResult(float(-np.log2(best_val)) - shift, best_sigma)

    candidates = []
    if zeta_start is not None:
        zeta = require_hermitian(zeta_start, "zeta_start")
        proj = mpow(zeta, 0.0)
        if np.abs(rho_b - proj @ rho_b @ proj).max() > 1e-8:
            raise ValueError("support of zeta_start does not contain the support of the marginal")
        candidates.append(zeta / np.trace(zeta).real)
    # the optimal sigma lives on supp rho_B (pinching onto it does not raise
    # the objective), cut as in mpow; a singular rho_B has no logarithm
    w_b, v_b = eig_hermitian(rho_b)
    keep = w_b > PINV_RCOND * w_b[-1]
    v_b = v_b[:, keep]
    blocks = v_b.conj().T @ mat.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3) @ v_b
    w, u, f, gap, iterations, status = _h2_mirror_descent(
        blocks, w_b[keep] / w_b[keep].sum(), np.eye(v_b.shape[1], dtype=complex))
    candidates.append(v_b @ ((u * w) @ u.conj().T) @ v_b.conj().T)
    for cand in candidates:
        val = _h2_value(mat, dims, cand)
        if val < best_val:
            best_sigma, best_val = cand, val
    meta = {
        "h2_upper": float(-np.log2(f - gap)) - shift if f > gap else float("inf"),
        "fw_gap": float(gap),
        "iterations": iterations,
        "status": status,
    }
    return EntropyResult(float(-np.log2(best_val)) - shift, best_sigma, meta)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def _trace(mat: np.ndarray):
    return np.trace(mat, axis1=-2, axis2=-1).real


def trace_distance(rho, sigma):
    """Un-halved trace distance ||rho - sigma||_1, of two matrices (a float)
    or matrix for matrix of two stacks over leading axes (an array). A finite
    non-Hermitian pair is accepted: its 1-norm is the sum of singular values."""
    return schatten_norm(require_finite(rho, "rho") - require_finite(sigma, "sigma"), 1)


def generalized_trace_distance(rho, sigma):
    """||rho - sigma||_1 + |tr rho - tr sigma|, of two matrices or of two stacks."""
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    return trace_distance(rho, sigma) + abs(_trace(rho) - _trace(sigma))


def fidelity(rho, sigma):
    """||sqrt(rho) sqrt(sigma)||_1, of two PSD matrices or of two stacks; a
    stack gives each pair's own value bit for bit. A non-finite or
    non-Hermitian rho or sigma is refused with its name."""
    r = mpow(require_hermitian(rho, "rho"), 0.5)
    s = mpow(require_hermitian(sigma, "sigma"), 0.5)
    return schatten_norm(r @ s, 1)


def generalized_fidelity(rho, sigma):
    """fidelity + sqrt((1 - tr rho)(1 - tr sigma)), each slack clipped at 0,
    of two sub-normalized states or of two stacks."""
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    slack_r = np.maximum(0.0, 1.0 - _trace(rho))
    slack_s = np.maximum(0.0, 1.0 - _trace(sigma))
    return fidelity(rho, sigma) + np.sqrt(slack_r * slack_s)


def purified_distance(rho, sigma):
    """sqrt(1 - F^2) with F the generalized fidelity capped at 1, of two
    sub-normalized states (a float) or of two stacks (an array)."""
    f = np.minimum(generalized_fidelity(rho, sigma), 1.0)
    out = np.sqrt(np.maximum(0.0, 1.0 - f * f))
    return float(out) if np.ndim(out) == 0 else out
