"""Single-shot entropies and distance measures for sub-normalized states.

All entropies are in bits. The conditional min-entropy is computed by a small
barrier solver written for the one SDP shape needed here,
min{tr z : rho <= I (x) z, z >= 0}, which is plenty at total dimension <= 16;
a dual witness from its central path brackets the optimum. The optimized
conditional collision entropy comes from exponentiated-gradient (mirror)
descent over density matrices, which carries a Frank-Wolfe bracket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PINV_RCOND, check_dims, eig_hermitian, mpow, schatten_norm, support_projector
from .states import DensityOp


@dataclass(frozen=True)
class EntropyResult:
    value: float                 # bits
    optimizer: np.ndarray        # normalized achieving sigma/zeta on the conditioning system
    method: str                  # closed_form | fixed_sigma | optimized
    meta: dict | None = None


def _matdims(state, dims=None):
    if isinstance(state, DensityOp):
        return state.mat, state.dims
    mat = np.asarray(state, dtype=complex)
    if dims is None:
        raise ValueError("dims required when passing a bare matrix")
    return mat, check_dims(mat, dims)


def h_min(state, dims=None) -> float:
    """Unconditional min-entropy, -log2 of the largest eigenvalue."""
    mat, _ = _matdims(state, dims if dims is not None else (np.asarray(state).shape[0],))
    w, _ = eig_hermitian(mat)
    if w[-1] <= 0:
        raise ValueError("min-entropy of the zero operator is undefined")
    return float(-np.log2(w[-1]))


# ---------------------------------------------------------------------------
# barrier solver for min tr z  s.t.  I_A (x) z - rho >= 0,  z >= 0
# ---------------------------------------------------------------------------

HMIN_PATH_TOL = 1e-10       # follow the central path until nu / t is below this
HMIN_BRACKET_TOL = 1e-6     # widest certified bracket, in bits, that counts as converged


def _is_pd(m: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(m)
        return True
    except np.linalg.LinAlgError:
        return False


def _lift(z: np.ndarray, d_a: int) -> np.ndarray:
    """I_A (x) z, scattered onto the block diagonal (equal to np.kron bit for bit)."""
    d_b = z.shape[0]
    out = np.zeros((d_a, d_b, d_a, d_b), dtype=complex)
    idx = np.arange(d_a)
    out[idx, :, idx, :] = z
    return out.reshape(d_a * d_b, d_a * d_b)


def _sdp_conditional(rho: np.ndarray, d_a: int, d_b: int):
    """Solve min{tr z : I_A (x) z >= rho, z >= 0} and certify the optimum from below.

    Path-following barrier on t tr z - log det S - log det z, S = I (x) z - rho,
    with t growing 20-fold per centering until nu / t < HMIN_PATH_TOL. The
    Newton step is solved in matrix form: with S_ac the d_B x d_B blocks of
    S^-1, the gradient is t I - tr_A S^-1 - z^-1 and the Hessian maps X to
    sum_ac S_ac X S_ca + z^-1 X z^-1. A centering stops early when a step
    cannot be computed or no step keeps S and z positive definite.

    After each centering, Y = S^-1 / lambda_max(tr_A S^-1) is feasible for the
    dual max{tr(rho Y) : tr_A Y <= I, Y >= 0}, so tr(rho Y) <= min tr z <= tr z
    (on the central path S^-1 / t is already feasible). Returns (tr z, z, Y)
    with the Y of largest tr(rho Y) over the path; near the end of the path S
    is close to singular and the last Y alone can be a poor witness.

    The tolerances are absolute, so the path runs on rho / tr rho and z is
    scaled back; Y is feasible for every scale. The bracket is then as tight
    at any trace as at trace 1.
    """
    scale = float(np.trace(rho).real)
    rho = rho / scale
    lam = float(np.linalg.eigvalsh(rho)[-1])
    z = (max(lam, 0.0) + max(1.0, abs(lam))) * np.eye(d_b, dtype=complex)
    nu = d_a * d_b + d_b
    t = max(1.0, nu / max(lam * d_b, 1e-2))
    eye = np.eye(d_b)
    y, y_val = None, -np.inf
    s_mat = _lift(z, d_a) - rho
    while True:
        for _ in range(60):
            try:
                si = np.linalg.inv(s_mat)
                zi = np.linalg.inv(z)
                blk = si.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3)
                grad = t * eye - np.einsum('aaij->ij', blk) - zi
                hess = (np.einsum('acij,calk->ikjl', blk, blk)
                        + np.einsum('ij,lk->ikjl', zi, zi)).reshape(d_b * d_b, d_b * d_b)
                dz = np.linalg.solve(hess, -grad.reshape(-1)).reshape(d_b, d_b)
            except np.linalg.LinAlgError:
                break
            dz = (dz + dz.conj().T) / 2
            dec = -float(np.vdot(grad, dz).real)
            if not np.isfinite(dec) or dec <= 0:
                break
            step, ok = 1.0, False
            for _ in range(60):
                z_new = z + step * dz
                s_new = _lift(z_new, d_a) - rho
                if _is_pd(s_new) and _is_pd(z_new):
                    ok = True
                    break
                step *= 0.5
            if not ok:
                break
            z, s_mat = z_new, s_new
            if dec < 1e-11:
                break
        si = np.linalg.inv(s_mat)
        cand = (si + si.conj().T) / 2
        cand /= np.linalg.eigvalsh(np.einsum('aiaj->ij', cand.reshape(d_a, d_b, d_a, d_b)))[-1]
        cand_val = float(np.vdot(cand, rho).real)
        if cand_val > y_val:
            y, y_val = cand, cand_val
        if nu / t < HMIN_PATH_TOL:
            break
        t *= 20.0
    z = scale * z
    return float(np.trace(z).real), z, y


def h_min_cond(state, dims=None) -> EntropyResult:
    """Conditional min-entropy of the first subsystem given the second.

    Solves min{tr z : rho_AB <= I_A (x) z, z >= 0}, whose optimum is
    2^-H_min. `value` = -log2 tr z at the strictly feasible z returned, the
    lower end of the bracket, so every bound built from 2^-H_min stays sound.
    `meta` holds `hmin_upper` = -log2 tr(rho Y) for the dual witness Y, the
    certified upper end; `status`, which is "converged" when the bracket
    [value, hmin_upper] is at most HMIN_BRACKET_TOL bits wide and "wide"
    otherwise; and `primal_slack`, the smallest eigenvalue of I (x) z - rho.
    """
    mat, dims = _matdims(state, dims)
    if len(dims) != 2:
        raise ValueError("h_min_cond expects a bipartite state")
    d_a, d_b = dims
    if np.trace(mat).real <= 0:
        raise ValueError("h_min_cond of a zero operator is undefined")
    val, z, y = _sdp_conditional(mat, d_a, d_b)
    value = float(-np.log2(val))
    upper = float(-np.log2(np.vdot(y, mat).real))
    meta = {
        "primal_slack": float(np.linalg.eigvalsh(_lift(z, d_a) - mat)[0]),
        "hmin_upper": upper,
        "status": "converged" if upper - value <= HMIN_BRACKET_TOL else "wide",
    }
    return EntropyResult(value=value, optimizer=z / np.trace(z).real,
                         method="optimized", meta=meta)


def _sandwich_trace(mat: np.ndarray, dims, s_half: np.ndarray) -> float:
    """tr[((I (x) S) rho)^2] via the conditioning-system blocks of rho."""
    d_a, d_b = dims
    blocks = mat.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3)
    w = np.matmul(s_half, blocks)            # S rho_ab blockwise
    return float(np.einsum('abij,baji->', w, w).real)


def _h2_value(mat: np.ndarray, dims, sigma: np.ndarray) -> float:
    """tr[((I (x) sigma^-1/2) rho)^2] / tr rho, the quantity inside -log2."""
    return _sandwich_trace(mat, dims, mpow(sigma, -0.5)) / float(np.trace(mat).real)


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


def _check_support(sigma: np.ndarray, rho_b: np.ndarray) -> None:
    proj = support_projector(sigma)
    leak = np.abs(rho_b - proj @ rho_b @ proj).max()
    if leak > 1e-8:
        raise ValueError("support of sigma does not contain the support of the marginal")


def h2_cond(state, dims=None, sigma=None, optimize: bool = False, *,
            zeta_start=None, seed=None) -> EntropyResult:
    """Conditional collision entropy of the first subsystem given the second.

    With `sigma` fixed, scored as sigma / tr sigma, the returned value
    lower-bounds the optimum, which keeps every decoupling upper bound valid. The default sigma is the conditioning
    marginal. `optimize=True` maximizes over sigma by mirror descent, started
    at the marginal and confined to its support. The value is the best of the
    marginal, `zeta_start` (the min-entropy optimizer, when the caller has
    solved that SDP) and the final iterate, each scored exactly, so it is never
    below the fixed-sigma value nor, given zeta_start, below H_min. `meta`
    holds the Frank-Wolfe gap `fw_gap`, the certified upper end `h2_upper` of
    the optimum, the iteration count and the solver `status` (converged,
    max_iter or stalled). `seed` is unused; it is accepted because
    benchmark/workloads.py still passes it.
    """
    mat, dims = _matdims(state, dims)
    if len(dims) != 2:
        raise ValueError("h2_cond expects a bipartite state")
    d_a, d_b = dims
    rho_b = np.trace(mat.reshape(d_a, d_b, d_a, d_b), axis1=0, axis2=2)
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=complex)
        _check_support(sigma, rho_b)
        sigma = sigma / np.trace(sigma).real
        return EntropyResult(float(-np.log2(_h2_value(mat, dims, sigma))), sigma, "fixed_sigma")

    sigma0 = rho_b / np.trace(rho_b).real
    best_sigma, best_val = sigma0, _h2_value(mat, dims, sigma0)
    if not optimize:
        return EntropyResult(float(-np.log2(best_val)), best_sigma, "fixed_sigma")

    candidates = []
    if zeta_start is not None:
        zeta = np.asarray(zeta_start, dtype=complex)
        _check_support(zeta, rho_b)
        candidates.append(zeta / np.trace(zeta).real)
    # the optimal sigma lives on supp rho_B (pinching onto it does not raise
    # the objective), cut as in mpow; a singular rho_B has no logarithm
    w_b, v_b = eig_hermitian(rho_b)
    keep = w_b > PINV_RCOND * w_b[-1]
    v_b = v_b[:, keep]
    blocks = mat.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3)
    blocks = v_b.conj().T @ (blocks / np.sqrt(np.trace(mat).real)) @ v_b
    w, u, f, gap, iterations, status = _h2_mirror_descent(
        blocks, w_b[keep] / w_b[keep].sum(), np.eye(v_b.shape[1], dtype=complex))
    candidates.append(v_b @ ((u * w) @ u.conj().T) @ v_b.conj().T)
    for cand in candidates:
        val = _h2_value(mat, dims, cand)
        if val < best_val:
            best_sigma, best_val = cand, val
    meta = {
        "h2_upper": float(-np.log2(f - gap)) if f > gap else float("inf"),
        "fw_gap": float(gap),
        "iterations": iterations,
        "status": status,
    }
    return EntropyResult(float(-np.log2(best_val)), best_sigma, "optimized", meta)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def trace_distance(rho, sigma) -> float:
    """Un-halved trace distance ||rho - sigma||_1."""
    return schatten_norm(np.asarray(rho) - np.asarray(sigma), 1)


def generalized_trace_distance(rho, sigma) -> float:
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    return trace_distance(rho, sigma) + abs(np.trace(rho).real - np.trace(sigma).real)


def fidelity(rho, sigma) -> float:
    """||sqrt(rho) sqrt(sigma)||_1."""
    r = mpow(np.asarray(rho, dtype=complex), 0.5)
    s = mpow(np.asarray(sigma, dtype=complex), 0.5)
    return schatten_norm(r @ s, 1)


def generalized_fidelity(rho, sigma) -> float:
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    slack_r = max(0.0, 1.0 - np.trace(rho).real)
    slack_s = max(0.0, 1.0 - np.trace(sigma).real)
    return fidelity(rho, sigma) + np.sqrt(slack_r * slack_s)


def purified_distance(rho, sigma) -> float:
    f = min(generalized_fidelity(rho, sigma), 1.0)
    return float(np.sqrt(max(0.0, 1.0 - f * f)))


def in_epsilon_ball(rho, sigma, eps: float, atol: float = 1e-7) -> bool:
    """Membership of sigma in the purified-distance eps-ball around rho.

    atol absorbs the sqrt(1 - F^2) amplification of fidelity round-off near
    F = 1, so that the ball always contains its own center.
    """
    rho = np.asarray(rho)
    if np.sqrt(np.trace(rho).real) <= eps:
        raise ValueError("ball undefined: sqrt(tr rho) must exceed eps")
    return purified_distance(sigma, rho) <= eps + atol
