"""One verifier per decoupling statement: each computes its left side exactly
or by controlled sampling, its right side from entropies and dimensions, and
reports pass/fail with the gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._groupavg import apply_channel_stack, group_values, perm_stack, schatten_stack
from .entropy import h2_cond, h_min_cond
from .linalg import partial_trace, permute_systems, schatten_norm, tensor
from .states import (
    ChoiChannel,
    DensityOp,
    apply_channel_mat,
    classicalize_channel,
    is_cq,
    max_entangled,
    pinch_mat,
)
from .symgroup import PermFamily, all_perms, classical_diamond_distance
from .twirl import UnitaryEnsemble, design_epsilon_bound, haar_samples, haar_twirl2_exact

EQ_TOL = 1e-9
BOUND_TOL = 1e-9


@dataclass
class VerificationReport:
    name: str
    kind: str                    # equality | upper_bound
    lhs: float
    rhs: float
    tolerance: float
    passed: bool
    meta: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs


def equality_report(name, lhs, rhs, tol=EQ_TOL, **meta) -> VerificationReport:
    ok = abs(lhs - rhs) <= tol * max(1.0, abs(rhs))
    return VerificationReport(name, "equality", float(lhs), float(rhs), tol, bool(ok), meta)


def bound_report(name, lhs, rhs, tol=BOUND_TOL, se: float = 0.0, **meta) -> VerificationReport:
    ok = lhs - 3.0 * se <= rhs + tol
    meta = dict(meta)
    if se:
        meta["se"] = se
        meta["strict_pass"] = bool(lhs <= rhs + tol)
    return VerificationReport(name, "upper_bound", float(lhs), float(rhs), tol, bool(ok), meta)


def _certified(rep: VerificationReport, hmin_results) -> VerificationReport:
    """Fail `rep` unless every H_min solve behind it converged, and record
    the widest certified bracket hmin_upper - value in its meta."""
    rep.meta["hmin_bracket"] = max(r.meta["hmin_upper"] - r.value for r in hmin_results)
    rep.passed = rep.passed and all(r.meta["status"] == "converged" for r in hmin_results)
    return rep


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def swap_pullback(choi_mat: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """The output-swap operator pulled back through two copies of the adjoint of
    the map with the given (not necessarily PSD) Choi operator; the result is
    swap-symmetric Hermitian on two input copies."""
    w4 = np.asarray(choi_mat, dtype=complex).reshape(d_in, d_out, d_in, d_out)
    m = d_in ** 2 * np.einsum('plak,qkbl->abpq', w4, w4, optimize=True)
    return m.reshape(d_in ** 2, d_in ** 2)


def pair_tensor(x: np.ndarray, y: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Arrange X on copies (1,3) and Y on copies (2,4) of (dx, dy, dx, dy)."""
    return permute_systems(tensor(x, y), (dx, dx, dy, dy), [0, 2, 1, 3])


def product_difference(mat: np.ndarray, dims) -> np.ndarray:
    """rho_AB - pi_A (x) rho_B."""
    d_a = dims[0]
    marg = partial_trace(mat, dims, [1])
    return mat - tensor(np.eye(d_a) / d_a, marg)


def haar_lemma_rhs(rho_mat, dims, ch: ChoiChannel) -> float:
    """Right side of the Haar decoupling lemma,
    d_A^2 / (d_A^2 - 1) ||rho - pi_A (x) rho_R||_2^2 ||omega - pi_A (x) omega_E||_2^2."""
    d_a = dims[0]
    dev_rho = product_difference(rho_mat, dims)
    dev_om = product_difference(ch.choi, (ch.d_in, ch.d_out))
    return (d_a ** 2 / (d_a ** 2 - 1)
            * schatten_norm(dev_rho, 2) ** 2 * schatten_norm(dev_om, 2) ** 2)


def channel_deviation(mat, dims, ch: ChoiChannel):
    """T(rho) - omega_E (x) rho_R for a bipartite rho with the channel on A."""
    out, out_dims = apply_channel_mat(ch, mat, dims, 0)
    marg = partial_trace(mat, dims, [1])
    return out - tensor(ch.env_marginal, marg), out_dims


def _channel_norms(ch: ChoiChannel, mat, dims, elems, p, target=None) -> np.ndarray:
    """Schatten p-norm of T(g X g^dagger) - target for every group element g
    acting on A of the operator X on A x R (no target: of the output itself)."""
    def norms(stack):
        out = apply_channel_stack(ch, stack, dims[1])
        return schatten_stack(out if target is None else out - target, p)

    return group_values(mat, dims, elems, norms)


def _deviation_norms(ch: ChoiChannel, mat, dims, elems, p) -> np.ndarray:
    """Schatten p-norm of T(g rho g^dagger) - omega_E (x) rho_R for every element g on A."""
    target = tensor(ch.env_marginal, partial_trace(mat, dims, [1]))
    return _channel_norms(ch, mat, dims, elems, p, target)


def _haar_deviation_norms(rho: DensityOp, ch: ChoiChannel, n_samples: int, seed) -> np.ndarray:
    us = haar_samples(rho.dims[0], n_samples, np.random.default_rng(seed))
    return _deviation_norms(ch, rho.mat, rho.dims, us, 1)


def _h2_pair(rho_mat, rho_dims, ch: ChoiChannel, optimize_sigma: bool):
    h2_rho = h2_cond(rho_mat, rho_dims, optimize=optimize_sigma).value
    h2_om = h2_cond(ch.choi, (ch.d_in, ch.d_out), optimize=optimize_sigma).value
    return h2_rho, h2_om


# ---------------------------------------------------------------------------
# Haar decoupling
# ---------------------------------------------------------------------------

def verify_decoupling_lemma(rho_mat, dims, ch: ChoiChannel, tol=EQ_TOL) -> VerificationReport:
    """Exact second-moment identity for the Haar average of the squared
    2-norm deviation from the product of marginals. Input need not be PSD."""
    d_a, d_r = dims
    if ch.d_in != d_a:
        raise ValueError("channel input dimension must match subsystem A")
    twirled = haar_twirl2_exact(swap_pullback(ch.choi, ch.d_in, ch.d_out), d_a).reconstructed
    m_e = swap_pullback(rho_mat, d_a, d_r)
    xi = max_entangled(d_a).mat - np.eye(d_a * d_a) / d_a ** 2
    big = pair_tensor(twirled, m_e, d_a, d_a)
    lhs = float(np.trace(tensor(xi, xi) @ big).real)
    return equality_report("decoupling_lemma", lhs, haar_lemma_rhs(rho_mat, dims, ch), tol,
                           dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out})


def verify_decoupling_theorem(rho: DensityOp, ch: ChoiChannel, n_samples: int = 200,
                              seed=0, optimize_sigma=False) -> VerificationReport:
    """Sampled Haar average of the 1-norm deviation against the collision-entropy
    bound 2^(-H2/2 - H2/2)."""
    d_a, d_r = rho.dims
    vals = _haar_deviation_norms(rho, ch, n_samples, seed)
    h2_rho, h2_om = _h2_pair(rho.mat, rho.dims, ch, optimize_sigma)
    rhs = 2.0 ** (-0.5 * h2_om - 0.5 * h2_rho)
    se = float(vals.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return bound_report("decoupling_theorem", float(vals.mean()), rhs, se=se,
                        n_samples=n_samples, seed=seed,
                        dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out})


def verify_improved_decoupling(rho: DensityOp, ch: ChoiChannel, n_samples: int = 200,
                               seed=0) -> VerificationReport:
    """Sampled Haar average against the min-entropy bound with the two bracket
    terms 2^(-Hmin) - tr/d_A and the 1-norm deviation factors."""
    d_a, d_r = rho.dims
    vals = _haar_deviation_norms(rho, ch, n_samples, seed)
    solves = (h_min_cond(rho.mat, rho.dims), h_min_cond(ch.choi, (ch.d_in, ch.d_out)))
    hmin_rho, hmin_om = (res.value for res in solves)
    tr_rho_r = float(np.trace(rho.mat).real)
    tr_om_e = float(np.trace(ch.choi).real)
    bracket_rho = 2.0 ** (-hmin_rho) - tr_rho_r / d_a
    bracket_om = 2.0 ** (-hmin_om) - tr_om_e / d_a
    norm_rho = schatten_norm(product_difference(rho.mat, rho.dims), 1)
    norm_om = schatten_norm(product_difference(ch.choi, (ch.d_in, ch.d_out)), 1)
    rhs = float(np.sqrt(max(0.0, bracket_om * bracket_rho) / (1 - 1 / d_a ** 2))
                * np.sqrt(norm_om * norm_rho))
    se = float(vals.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return _certified(bound_report(
        "improved_decoupling", float(vals.mean()), rhs, se=se, n_samples=n_samples, seed=seed,
        brackets_positive=bool(bracket_rho >= -1e-12 and bracket_om >= -1e-12),
        dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out}), solves)


def verify_design_decoupling(ens: UnitaryEnsemble, rho: DensityOp, ch: ChoiChannel,
                             optimize_sigma=False, epsilon=None) -> VerificationReport:
    """Exact ensemble average of the 1-norm deviation against the almost-2-design
    bound sqrt(1 + 4 eps d^4) 2^(-H2/2 - H2/2)."""
    d_a, d_r = rho.dims
    if ens.dim != d_a:
        raise ValueError("ensemble dimension must match subsystem A")
    lhs = float(ens.weights @ _deviation_norms(ch, rho.mat, rho.dims, ens.unitaries, 1))
    eps = design_epsilon_bound(ens, d_a) if epsilon is None else float(epsilon)
    h2_rho, h2_om = _h2_pair(rho.mat, rho.dims, ch, optimize_sigma)
    rhs = float(np.sqrt(1 + 4 * eps * d_a ** 4) * 2.0 ** (-0.5 * (h2_om + h2_rho)))
    return bound_report("design_decoupling", lhs, rhs, epsilon=eps,
                        dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out})


# ---------------------------------------------------------------------------
# CQ states under the full permutation group
# ---------------------------------------------------------------------------

def _full_group(d_a: int) -> np.ndarray:
    """All permutations of d_A points (at most symgroup.MAX_ENUM_D) as one array."""
    return perm_stack(all_perms(d_a))


def verify_cq_decoupling_lemma(rho: DensityOp, ch: ChoiChannel, tol=EQ_TOL) -> VerificationReport:
    """Exhaustive permutation average of the squared 2-norm deviation equals
    d^2/(d-1) times the product of classicalized deviation norms."""
    d_a, d_r = rho.dims
    if not is_cq(rho, 0):
        raise ValueError("state must be classical on A")
    lhs = float(np.mean(_deviation_norms(ch, rho.mat, rho.dims, _full_group(d_a), 2) ** 2))
    w_cl = classicalize_channel(ch)
    dev_rho = product_difference(rho.mat, rho.dims)
    dev_om = product_difference(w_cl.choi, (d_a, ch.d_out))
    rhs = (d_a ** 2 / (d_a - 1)
           * schatten_norm(dev_rho, 2) ** 2 * schatten_norm(dev_om, 2) ** 2)
    return equality_report("cq_decoupling_lemma", lhs, rhs, tol,
                           dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out})


def _hash_norms(mat, d_a1, d_a2, d_r, elems, p, target) -> np.ndarray:
    """Schatten p-norm of tr_A2(g X g^dagger) - target for every permutation g of A = A1 x A2."""
    def norms(stack):
        t = stack.reshape(-1, d_a1, d_a2, d_r, d_a1, d_a2, d_r)
        reduced = np.einsum('kabrcbs->karcs', t).reshape(-1, d_a1 * d_r, d_a1 * d_r)
        return schatten_stack(reduced - target, p)

    return group_values(mat, (d_a1 * d_a2, d_r), elems, norms)


def _hash_lhs(rho_mat, d_a1, d_a2, d_r, fam: PermFamily | None = None) -> float:
    """Average 1-norm distance of tr_A2 of the permuted state from pi_A1 (x) rho_R,
    over the full group or the weighted family."""
    d_a = d_a1 * d_a2
    rho_r = partial_trace(rho_mat, (d_a, d_r), [1])
    target = tensor(np.eye(d_a1) / d_a1, rho_r)
    elems = _full_group(d_a) if fam is None else perm_stack(fam.perms)
    vals = _hash_norms(rho_mat, d_a1, d_a2, d_r, elems, 1, target)
    return float(np.mean(vals) if fam is None else fam.weights @ vals)


def verify_cq_hash(rho: DensityOp, d_a1: int, d_a2: int, tol=BOUND_TOL) -> VerificationReport:
    """Leftover-hash style bound for tracing out A2 of a CQ state under the
    full permutation group, with the min-entropy right side."""
    d_a, d_r = rho.dims
    if d_a != d_a1 * d_a2:
        raise ValueError("split does not match d_A")
    if not is_cq(rho, 0):
        raise ValueError("state must be classical on A")
    lhs = _hash_lhs(rho.mat, d_a1, d_a2, d_r)
    res = h_min_cond(rho.mat, rho.dims)
    rhs = float(np.sqrt(d_a1 * (d_a - d_a2) / (d_a - 1) * 2.0 ** (-res.value)))
    weak = float(np.sqrt(d_a1 * 2.0 ** (-res.value)))
    return _certified(bound_report("cq_hash", lhs, rhs, tol,
                                   weak_rhs=weak, weak_pass=bool(lhs <= weak + tol),
                                   dims={"d_A1": d_a1, "d_A2": d_a2, "d_R": d_r}), [res])


def verify_cq_tpcp(rho: DensityOp, ch: ChoiChannel, tol=BOUND_TOL,
                   optimize_sigma=False) -> VerificationReport:
    """Permutation decoupling of a CQ state through a trace-preserving map."""
    d_a, d_r = rho.dims
    if not ch.tp:
        raise ValueError("channel must be trace preserving")
    if not is_cq(rho, 0):
        raise ValueError("state must be classical on A")
    d_e = ch.d_out
    lhs = float(np.mean(_deviation_norms(ch, rho.mat, rho.dims, _full_group(d_a), 1)))
    h2 = h2_cond(rho.mat, rho.dims, optimize=optimize_sigma).value
    rhs = float(np.sqrt(d_e * (d_a - d_a / d_e) / (d_a - 1) * 2.0 ** (-h2)))
    return bound_report("cq_tpcp", lhs, rhs, tol,
                        dims={"d_A": d_a, "d_R": d_r, "d_E": d_e})


def verify_cq_general(rho: DensityOp, ch: ChoiChannel, tol=BOUND_TOL,
                      optimize_sigma=False) -> VerificationReport:
    """General CQ decoupling bound sqrt((d_A + 1) 2^(-H2 - H2)) with the
    collision entropy of the classicalized Choi operator."""
    d_a, d_r = rho.dims
    if not is_cq(rho, 0):
        raise ValueError("state must be classical on A")
    lhs = float(np.mean(_deviation_norms(ch, rho.mat, rho.dims, _full_group(d_a), 1)))
    w_cl = classicalize_channel(ch)
    h2_rho = h2_cond(rho.mat, rho.dims, optimize=optimize_sigma).value
    h2_om = h2_cond(w_cl.choi, (d_a, ch.d_out), optimize=optimize_sigma).value
    rhs = float(np.sqrt((d_a + 1) * 2.0 ** (-h2_rho - h2_om)))
    return bound_report("cq_general", lhs, rhs, tol,
                        dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out})


# ---------------------------------------------------------------------------
# almost independent permutation families
# ---------------------------------------------------------------------------

def verify_family_hash(fam: PermFamily, rho: DensityOp, d_a1: int, d_a2: int,
                       tol=BOUND_TOL, optimize_sigma=False) -> VerificationReport:
    """Hash bound when averaging over a pairwise almost independent family,
    with the epsilon penalty 4 eps d_A inside the square root."""
    d_a, d_r = rho.dims
    if d_a != d_a1 * d_a2:
        raise ValueError("split does not match d_A")
    if not is_cq(rho, 0):
        raise ValueError("state must be classical on A")
    lhs = _hash_lhs(rho.mat, d_a1, d_a2, d_r, fam)
    eps = classical_diamond_distance(fam, d_a)
    h2 = h2_cond(rho.mat, rho.dims, optimize=optimize_sigma).value
    rhs = float(np.sqrt(d_a1 * ((d_a - d_a2) / (d_a - 1) + 4 * eps * d_a) * 2.0 ** (-h2)))
    return bound_report("family_hash", lhs, rhs, tol, epsilon=eps, family_size=len(fam),
                        dims={"d_A1": d_a1, "d_A2": d_a2, "d_R": d_r})


# ---------------------------------------------------------------------------
# fully quantum permutation decoupling
# ---------------------------------------------------------------------------

def _embedded_pair_state(d_a: int, d_r: int, kind: str) -> np.ndarray:
    """Operators on A x R supported on the first d_r levels of A.

    kind: 'phi' entangled, 'tee' classically correlated, 'pi' product of
    embedded maximally mixed states.
    """
    m = np.zeros((d_a * d_r, d_a * d_r), dtype=complex)
    if kind == "phi":
        for i in range(d_r):
            for j in range(d_r):
                m[i * d_r + i, j * d_r + j] = 1.0 / d_r
    elif kind == "tee":
        for i in range(d_r):
            m[i * d_r + i, i * d_r + i] = 1.0 / d_r
    elif kind == "pi":
        for i in range(d_r):
            for j in range(d_r):
                m[i * d_r + j, i * d_r + j] = 1.0 / d_r ** 2
    else:
        raise ValueError(kind)
    return m


def verify_distance_from_classicality(ch: ChoiChannel, d_r: int,
                                      tol=EQ_TOL, optimize_sigma=False) -> VerificationReport:
    """Permutation average of the squared 2-norm of the channel applied to the
    entangled-minus-classical difference; exactly (d_A/d_R)(d_R-1)/(d_A-1)
    times the distance of the Choi operator from its pinched version.

    meta['bound_check'] carries the 1-norm corollary with the H2 right side.
    """
    d_a = ch.d_in
    if d_a < 4:
        raise ValueError("needs d_A >= 4")
    if not 1 <= d_r <= d_a:
        raise ValueError("needs d_R <= d_A")
    st = _embedded_pair_state(d_a, d_r, "phi") - _embedded_pair_state(d_a, d_r, "tee")
    group = _full_group(d_a)
    lhs = float(np.mean(_channel_norms(ch, st, (d_a, d_r), group, 2) ** 2))
    w_cl = pinch_mat(ch.choi, (d_a, ch.d_out), 0)
    rhs = ((d_a / d_r) * (d_r - 1) / (d_a - 1) * schatten_norm(ch.choi - w_cl, 2) ** 2)
    report = equality_report("distance_from_classicality", lhs, rhs, tol,
                             dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out})

    lhs1 = float(np.mean(_channel_norms(ch, st, (d_a, d_r), group, 1)))
    h2_om = h2_cond(ch.choi, (d_a, ch.d_out), optimize=optimize_sigma).value
    rhs1 = float(np.sqrt(d_a * (d_r - 1) / (d_a - 1)) * 2.0 ** (-0.5 * h2_om))
    report.meta["bound_check"] = bound_report(
        "distance_from_classicality_1norm", lhs1, rhs1, BOUND_TOL,
        dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out})
    return report


def verify_perm_decoupling_lemma(ch: ChoiChannel, d_r: int, tol=EQ_TOL) -> VerificationReport:
    """Exact permutation-decoupling identity on the embedded entangled state.

    The average is of the squared 2-norm of the channel applied to the
    difference (entangled minus embedded product); for d_R = d_A this equals
    the average distance of the channel output from omega_E (x) pi_R, and the
    right side matches the Haar decoupling lemma on the entangled input.
    """
    d_a = ch.d_in
    if d_a < 4:
        raise ValueError("needs d_A >= 4")
    if not 1 <= d_r <= d_a:
        raise ValueError("needs d_R <= d_A")
    st = _embedded_pair_state(d_a, d_r, "phi") - _embedded_pair_state(d_a, d_r, "pi")
    lhs = float(np.mean(_channel_norms(ch, st, (d_a, d_r), _full_group(d_a), 2) ** 2))
    w_cl = pinch_mat(ch.choi, (d_a, ch.d_out), 0)
    tr_w2 = schatten_norm(ch.choi, 2) ** 2
    tr_we2 = schatten_norm(ch.env_marginal, 2) ** 2
    tr_wcl2 = schatten_norm(w_cl, 2) ** 2
    rhs = ((d_a ** 2 / d_r ** 2) * (d_r - 1) / (d_a - 1)
           * ((d_r / d_a) * tr_w2 - tr_we2 / d_a + (1 - d_r / d_a) * tr_wcl2))
    return equality_report("perm_decoupling_lemma", lhs, rhs, tol,
                           dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out})


def verify_quantum_hash(rho: DensityOp, d_a1: int, d_a2: int,
                        tol=BOUND_TOL) -> VerificationReport:
    """Fully quantum hash bound sqrt(2 d_A1 2^(-Hmin)) under the permutation
    group; meta['two_norm_check'] carries the intermediate squared-2-norm bound.
    """
    d_a1, d_a2 = int(d_a1), int(d_a2)
    d_a = d_a1 * d_a2
    d_r = rho.dims[1]
    if rho.dims[0] != d_a:
        raise ValueError("split does not match d_A")
    if d_a < 4:
        raise ValueError("needs d_A >= 4")
    lhs = _hash_lhs(rho.mat, d_a1, d_a2, d_r)
    res = h_min_cond(rho.mat, rho.dims)
    hmin = res.value
    rhs = float(np.sqrt(2 * d_a1 * 2.0 ** (-hmin)))
    report = _certified(bound_report("quantum_hash", lhs, rhs, tol,
                                     dims={"d_A1": d_a1, "d_A2": d_a2, "d_R": d_r}), [res])

    # intermediate 2-norm inequality for the min-entropy-optimally sandwiched state
    zeta = res.optimizer
    from .linalg import mpow

    sandwich = tensor(np.eye(d_a), mpow(zeta, -0.25))
    tilde = sandwich @ rho.mat @ sandwich
    tilde_cl = pinch_mat(tilde, rho.dims, 0)
    tilde_r = partial_trace(tilde, rho.dims, [1])
    target = tensor(np.eye(d_a1) / d_a1, tilde_r)

    lhs2 = float(np.mean(_hash_norms(tilde, d_a1, d_a2, d_r, _full_group(d_a), 2, target) ** 2))
    rhs2 = ((d_a1 - 1) / (d_a - 1) * schatten_norm(tilde, 2) ** 2
            + (d_a1 - 1) * (d_a2 - 1) / (d_a - 1) * schatten_norm(tilde_cl, 2) ** 2
            + schatten_norm(tilde, 2) ** 2)
    report.meta["two_norm_check"] = bound_report(
        "quantum_hash_2norm", lhs2, rhs2, BOUND_TOL,
        dims={"d_A1": d_a1, "d_A2": d_a2, "d_R": d_r})
    return report
