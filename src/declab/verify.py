"""One verifier per decoupling statement: each computes its left side exactly
or by controlled sampling, its right side from entropies and dimensions, and
reports pass/fail with the gap. Every averaged left side takes its
per-element norms from `_groupavg.channel_norms`; the hash bounds are
decoupling averages through the channel tr_A2 (`_trace_out`).

A uniform average over S_d_A whose value is unchanged by a subgroup runs over
one permutation per coset, which is the same mean regrouped (every coset has
the same size): C(d_A, d_R) image sets for `verify_distance_from_classicality`
and `verify_perm_decoupling_lemma`, d_A!/(d_A2!^d_A1 d_A1!) block partitions
for `verify_cq_hash` and d_A!/(d_A1! d_A2!) cosets of S_d_A1 x S_d_A2 for
`verify_quantum_hash`. The other CQ averages enumerate all of S_d_A. Every
enumeration is refused above symgroup.MAX_ENUM_ELEMENTS = 8! = 40 320
elements.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from ._groupavg import ElementSet, channel_norms, element_chunks
from .entropy import h2_cond, h_min_cond
from .linalg import check_dims, mpow, pair_indices, partial_trace, schatten_norm, tensor, whole
from .states import ChoiChannel, DensityOp, is_cq, max_entangled, pinch_mat
from .symgroup import (
    all_perms,
    block_partition_perms,
    image_set_perms,
    pairwise_dependence,
    split_coset_perms,
)
from .twirl import design_epsilon_bound, haar_samples, haar_twirl2_exact

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


def _sampled_meta(meta: dict, se: float, strict: bool) -> dict:
    """A sampled record (se > 0) passes within three standard errors se of its
    tolerance; its meta keeps se and the verdict without that allowance."""
    return {**meta, "se": se, "strict_pass": bool(strict)} if se else meta


def equality_report(name, lhs, rhs, tol=EQ_TOL, se: float = 0.0, **meta) -> VerificationReport:
    slack = tol * max(1.0, abs(rhs))
    ok = abs(lhs - rhs) <= slack + 3.0 * se
    return VerificationReport(name, "equality", float(lhs), float(rhs), tol, bool(ok),
                              _sampled_meta(meta, se, abs(lhs - rhs) <= slack))


def bound_report(name, lhs, rhs, tol=BOUND_TOL, se: float = 0.0, **meta) -> VerificationReport:
    ok = lhs - 3.0 * se <= rhs + tol
    return VerificationReport(name, "upper_bound", float(lhs), float(rhs), tol, bool(ok),
                              _sampled_meta(meta, se, lhs <= rhs + tol))


def mean_se(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error std(ddof=1) / sqrt(n)."""
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(len(vals)))


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


def product_difference(mat: np.ndarray, dims) -> np.ndarray:
    """rho_AB - pi_A (x) rho_B."""
    d_a = dims[0]
    marg = partial_trace(mat, dims, [1])
    return mat - tensor(np.eye(d_a) / d_a, marg)


def haar_lemma_rhs(rho_mat, dims, ch: ChoiChannel) -> float:
    """Right side of the Haar decoupling lemma,
    d_A^2 / (d_A^2 - 1) ||rho - pi_A (x) rho_R||_2^2 ||omega - pi_A (x) omega_E||_2^2."""
    dims = check_dims(rho_mat, dims)
    d_a = whole(dims[0], "d_A", 2)
    ch.require_input(d_a)
    dev_rho = product_difference(rho_mat, dims)
    dev_om = product_difference(ch.choi, (ch.d_in, ch.d_out))
    return (d_a ** 2 / (d_a ** 2 - 1)
            * schatten_norm(dev_rho, 2) ** 2 * schatten_norm(dev_om, 2) ** 2)


def perm_lemma_rhs(ch: ChoiChannel, d_r: int) -> float:
    """Right side of the permutation decoupling lemma on the embedded entangled
    state, (d_A^2 / d_R^2) (d_R - 1) / (d_A - 1) ((d_R / d_A) ||omega||_2^2
    - ||omega_E||_2^2 / d_A + (1 - d_R / d_A) ||omega_cl||_2^2), omega_cl the
    Choi operator pinched on A. At d_R = d_A it is the Haar lemma right side on
    the maximally entangled input."""
    d_a = whole(ch.d_in, "d_A", 2)
    d_r = whole(d_r, "d_R", 1, d_a)
    w_cl = pinch_mat(ch.choi, (d_a, ch.d_out))
    tr_w2 = schatten_norm(ch.choi, 2) ** 2
    tr_we2 = schatten_norm(ch.env_marginal, 2) ** 2
    tr_wcl2 = schatten_norm(w_cl, 2) ** 2
    return ((d_a ** 2 / d_r ** 2) * (d_r - 1) / (d_a - 1)
            * ((d_r / d_a) * tr_w2 - tr_we2 / d_a + (1 - d_r / d_a) * tr_wcl2))


def _deviation_norms(ch: ChoiChannel, mat, dims, elems, p) -> np.ndarray:
    """Schatten p-norm of T(g rho g^dagger) - omega_E (x) rho_R for every element g
    on A, with omega_E = T(pi_A) the channel's output marginal."""
    target = tensor(ch.env_marginal, partial_trace(mat, dims, [1]))
    return channel_norms(ch, mat, dims, elems, (p,), target)[:, 0]


def _trace_out(d_a1: int, d_a2: int) -> ChoiChannel:
    """tr_A2 from A = A1 x A2 to A1 as a channel: its Choi operator is
    (1/d_A) sum_a2 |w_a2><w_a2| with w_a2 = sum_a1 |a1 a2>|a1>, so its output
    marginal T(pi_A) is pi_A1."""
    w = np.einsum('ae,bc->abec', np.eye(d_a1), np.eye(d_a2)).reshape(-1, d_a2)
    return ChoiChannel(w @ w.T / (d_a1 * d_a2), d_a1 * d_a2, d_a1, tp=True)


def _haar_deviation_norms(rho: DensityOp, ch: ChoiChannel, n_samples: int, rng,
                          p) -> np.ndarray:
    """`_deviation_norms` of n_samples Haar unitaries drawn from rng (a generator
    or seed) one kernel chunk at a time; haar_samples consumes rng sample by
    sample, so the values are those of one batch of n_samples."""
    n_samples = whole(n_samples, "n_samples", 2)
    rng = np.random.default_rng(rng)
    return np.concatenate([
        _deviation_norms(ch, rho.mat, rho.dims,
                         haar_samples(rho.dims[0], sl.stop - sl.start, rng), p)
        for sl in element_chunks(n_samples, rho.dims, unitary=True, d_out=ch.d_out)])


def _h2_pair(rho_mat, rho_dims, ch: ChoiChannel):
    h2_rho = h2_cond(rho_mat, rho_dims).value
    h2_om = h2_cond(ch.choi, (ch.d_in, ch.d_out)).value
    return h2_rho, h2_om


# ---------------------------------------------------------------------------
# Haar decoupling
# ---------------------------------------------------------------------------

def verify_decoupling_lemma(rho_mat, dims, ch: ChoiChannel) -> VerificationReport:
    """Exact second-moment identity for the Haar average of the squared
    2-norm deviation from the product of marginals. Input need not be PSD.
    The exact left side is one contraction of four d_A^4 tensors."""
    d_a, d_r = check_dims(rho_mat, dims)
    ch.require_input(d_a)
    twirled = haar_twirl2_exact(swap_pullback(ch.choi, ch.d_in, ch.d_out), d_a).reconstructed
    m_e = swap_pullback(rho_mat, d_a, d_r)
    xi = max_entangled(d_a).mat - np.eye(d_a * d_a) / d_a ** 2
    xi4, x4, y4 = (m.reshape((d_a,) * 4) for m in (xi, twirled, m_e))
    # tr[(xi (x) xi) (X (x) Y)], xi = Phi - 1/d_A^2 on copies 1, 2 and 3, 4, the
    # twirled channel pullback X on copies 1, 3 and the input's Y on 2, 4
    lhs = float(np.einsum('abcd,efgh,cgae,dhbf->', xi4, xi4, x4, y4, optimize=True).real)
    return equality_report("decoupling_lemma", lhs, haar_lemma_rhs(rho_mat, dims, ch),
                           dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out})


def verify_decoupling_theorem(rho: DensityOp, ch: ChoiChannel, n_samples: int = 200,
                              seed=0) -> VerificationReport:
    """Sampled Haar average of the 1-norm deviation against the collision-entropy
    bound 2^(-H2/2 - H2/2)."""
    d_a, d_r = rho.dims
    vals = _haar_deviation_norms(rho, ch, n_samples, seed, 1)
    h2_rho, h2_om = _h2_pair(rho.mat, rho.dims, ch)
    rhs = 2.0 ** (-0.5 * h2_om - 0.5 * h2_rho)
    lhs, se = mean_se(vals)
    return bound_report("decoupling_theorem", lhs, rhs, se=se,
                        n_samples=n_samples, seed=seed,
                        dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out})


def verify_improved_decoupling(rho: DensityOp, ch: ChoiChannel, n_samples: int = 200,
                               seed=0) -> VerificationReport:
    """Sampled Haar average against the min-entropy bound with the two bracket
    terms 2^(-Hmin) - tr/d_A and the 1-norm deviation factors."""
    d_a, d_r = whole(rho.dims[0], "d_A", 2), rho.dims[1]
    vals = _haar_deviation_norms(rho, ch, n_samples, seed, 1)
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
    lhs, se = mean_se(vals)
    return _certified(bound_report(
        "improved_decoupling", lhs, rhs, se=se, n_samples=n_samples, seed=seed,
        brackets_positive=bool(bracket_rho >= -1e-12 and bracket_om >= -1e-12),
        dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out}), solves)


def verify_design_decoupling(ens: ElementSet, rho: DensityOp, ch: ChoiChannel,
                             epsilon=None) -> VerificationReport:
    """Exact ensemble average of the 1-norm deviation against the almost-2-design
    bound sqrt(1 + 4 eps d^4) 2^(-H2/2 - H2/2)."""
    d_a, d_r = rho.dims
    ens.require("unitaries", d_a)
    if epsilon is not None and not 0 <= float(epsilon) < np.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    lhs = float(ens.weights @ _deviation_norms(ch, rho.mat, rho.dims, ens.elems, 1))
    eps = design_epsilon_bound(ens, d_a) if epsilon is None else float(epsilon)
    h2_rho, h2_om = _h2_pair(rho.mat, rho.dims, ch)
    rhs = float(np.sqrt(1 + 4 * eps * d_a ** 4) * 2.0 ** (-0.5 * (h2_om + h2_rho)))
    return bound_report("design_decoupling", lhs, rhs, epsilon=eps,
                        dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out})


# ---------------------------------------------------------------------------
# CQ states under the full permutation group
# ---------------------------------------------------------------------------

def _cq_dims(rho: DensityOp) -> tuple[int, int]:
    """(d_A, d_R) of a state on A x R; ValueError unless d_A >= 2 and it is classical on A."""
    if not is_cq(rho):
        raise ValueError("state must be classical on A")
    return whole(rho.dims[0], "d_A", 2), rho.dims[1]


def _split(d_a: int, d_a1: int, d_a2: int) -> tuple[int, int]:
    """The split A = A1 x A2 as two ints; ValueError unless d_A >= 2 and the
    split is two integer factors >= 1 of d_A (2.9 x 2.1 is no split of 4)."""
    d_a = whole(d_a, "d_A", 2)
    with suppress(ValueError):
        if whole(d_a1, "d_A1", 1) * whole(d_a2, "d_A2", 1) == d_a:
            return int(d_a1), int(d_a2)
    raise ValueError(f"split {d_a1} x {d_a2} is not two factors >= 1 of d_A = {d_a}")


def verify_cq_decoupling_lemma(rho: DensityOp, ch: ChoiChannel) -> VerificationReport:
    """Exhaustive permutation average of the squared 2-norm deviation equals
    d^2/(d-1) times the product of classicalized deviation norms."""
    d_a, d_r = _cq_dims(rho)
    lhs = float(np.mean(_deviation_norms(ch, rho.mat, rho.dims, all_perms(d_a), 2) ** 2))
    w_cl = pinch_mat(ch.choi, (d_a, ch.d_out))
    dev_rho = product_difference(rho.mat, rho.dims)
    dev_om = product_difference(w_cl, (d_a, ch.d_out))
    rhs = (d_a ** 2 / (d_a - 1)
           * schatten_norm(dev_rho, 2) ** 2 * schatten_norm(dev_om, 2) ** 2)
    return equality_report("cq_decoupling_lemma", lhs, rhs,
                           dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out})


def verify_cq_hash(rho: DensityOp, d_a1: int, d_a2: int) -> VerificationReport:
    """Leftover-hash style bound for tracing out A2 of a CQ state under the
    full permutation group, with the min-entropy right side.

    tr_A2 of a CQ state sees only which A1 block each point of A lands in, and
    pi_A1 (x) rho_R no relabelling of the blocks, so the group mean is the mean
    over one permutation per partition of A into d_A1 blocks of d_A2 points,
    d_A!/(d_A2!^d_A1 d_A1!) of them (at most 8! = 40 320)."""
    d_a, d_r = _cq_dims(rho)
    d_a1, d_a2 = _split(d_a, d_a1, d_a2)
    lhs = float(np.mean(_deviation_norms(_trace_out(d_a1, d_a2), rho.mat, rho.dims,
                                         block_partition_perms(d_a1, d_a2), 1)))
    res = h_min_cond(rho.mat, rho.dims)
    rhs = float(np.sqrt(d_a1 * (d_a - d_a2) / (d_a - 1) * 2.0 ** (-res.value)))
    weak = float(np.sqrt(d_a1 * 2.0 ** (-res.value)))
    return _certified(bound_report("cq_hash", lhs, rhs, hmin=res.value,
                                   weak_rhs=weak, weak_pass=bool(lhs <= weak + BOUND_TOL),
                                   dims={"d_A1": d_a1, "d_A2": d_a2, "d_R": d_r}), [res])


def verify_cq_tpcp(rho: DensityOp, ch: ChoiChannel) -> VerificationReport:
    """Permutation decoupling of a CQ state through a trace-preserving map."""
    if not ch.tp:
        raise ValueError("channel must be trace preserving")
    d_a, d_r = _cq_dims(rho)
    d_e = ch.d_out
    lhs = float(np.mean(_deviation_norms(ch, rho.mat, rho.dims, all_perms(d_a), 1)))
    h2 = h2_cond(rho.mat, rho.dims).value
    rhs = float(np.sqrt(d_e * (d_a - d_a / d_e) / (d_a - 1) * 2.0 ** (-h2)))
    return bound_report("cq_tpcp", lhs, rhs, dims={"d_A": d_a, "d_R": d_r, "d_E": d_e})


def verify_cq_general(rho: DensityOp, ch: ChoiChannel) -> VerificationReport:
    """General CQ decoupling bound sqrt((d_A + 1) 2^(-H2 - H2)) with the
    collision entropy of the classicalized Choi operator."""
    d_a, d_r = _cq_dims(rho)
    lhs = float(np.mean(_deviation_norms(ch, rho.mat, rho.dims, all_perms(d_a), 1)))
    w_cl = pinch_mat(ch.choi, (d_a, ch.d_out))
    h2_rho = h2_cond(rho.mat, rho.dims).value
    h2_om = h2_cond(w_cl, (d_a, ch.d_out)).value
    rhs = float(np.sqrt((d_a + 1) * 2.0 ** (-h2_rho - h2_om)))
    return bound_report("cq_general", lhs, rhs, dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out})


# ---------------------------------------------------------------------------
# almost independent permutation families
# ---------------------------------------------------------------------------

def verify_family_hash(fam: ElementSet, rho: DensityOp, d_a1: int, d_a2: int) -> VerificationReport:
    """Hash bound when averaging over a pairwise almost independent family,
    with the epsilon penalty 4 eps d_A inside the square root; eps is the
    family's pairwise dependence."""
    d_a, d_r = _cq_dims(rho)
    d_a1, d_a2 = _split(d_a, d_a1, d_a2)
    eps = pairwise_dependence(fam, d_a)         # refuses a set that is not permutations of A
    lhs = float(fam.weights @ _deviation_norms(_trace_out(d_a1, d_a2), rho.mat, rho.dims,
                                               fam.elems, 1))
    h2 = h2_cond(rho.mat, rho.dims).value
    rhs = float(np.sqrt(d_a1 * ((d_a - d_a2) / (d_a - 1) + 4 * eps * d_a) * 2.0 ** (-h2)))
    return bound_report("family_hash", lhs, rhs, epsilon=eps, family_size=len(fam),
                        dims={"d_A1": d_a1, "d_A2": d_a2, "d_R": d_r})


# ---------------------------------------------------------------------------
# fully quantum permutation decoupling
# ---------------------------------------------------------------------------

def _embedded_pair_states(d_a: int, d_r: int) -> tuple[int, np.ndarray]:
    """d_R as an int, and Phi, T and pi_R (x) pi_R, each on A x R and supported on
    the first d_R levels of A, where row a * d_R + r (a < d_R) is that row of R x R."""
    d_r = whole(d_r, "d_R", 1, whole(d_a, "d_A", 4))
    i1, i2, j1, j2 = pair_indices(d_r)
    phi = ((i1 == i2) & (j1 == j2)) / d_r
    out = np.zeros((3, d_a * d_r, d_a * d_r), dtype=complex)
    out[:, :d_r * d_r, :d_r * d_r] = (phi, phi * (i1 == j1), np.eye(d_r * d_r) / d_r ** 2)
    return d_r, out


def verify_distance_from_classicality(ch: ChoiChannel, d_r: int) -> VerificationReport:
    """Permutation average of the squared 2-norm of the channel applied to the
    entangled-minus-classical difference; exactly (d_A/d_R)(d_R-1)/(d_A-1)
    times the distance of the Choi operator from its pinched version.

    meta['bound_check'] carries the 1-norm corollary with the H2 right side.
    Both averages run over one permutation per image set of the first d_R
    points, C(d_A, d_R) of them (at most 8! = 40 320): the input lives on
    those levels of A and is invariant under sigma (x) sigma there, and a
    permutation of R commutes with the channel and keeps every norm.
    """
    d_a = ch.d_in
    d_r, (phi, tee, _) = _embedded_pair_states(d_a, d_r)
    st = phi - tee
    reps = image_set_perms(d_a, d_r)
    norms2, norms1 = channel_norms(ch, st, (d_a, d_r), reps, (2, 1)).T
    lhs = float(np.mean(norms2 ** 2))
    w_cl = pinch_mat(ch.choi, (d_a, ch.d_out))
    rhs = ((d_a / d_r) * (d_r - 1) / (d_a - 1) * schatten_norm(ch.choi - w_cl, 2) ** 2)
    report = equality_report("distance_from_classicality", lhs, rhs,
                             dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out})

    lhs1 = float(np.mean(norms1))
    h2_om = h2_cond(ch.choi, (d_a, ch.d_out)).value
    rhs1 = float(np.sqrt(d_a * (d_r - 1) / (d_a - 1)) * 2.0 ** (-0.5 * h2_om))
    report.meta["bound_check"] = bound_report(
        "distance_from_classicality_1norm", lhs1, rhs1, BOUND_TOL,
        dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out})
    return report


def verify_perm_decoupling_lemma(ch: ChoiChannel, d_r: int) -> VerificationReport:
    """Exact permutation-decoupling identity on the embedded entangled state.

    The average is of the squared 2-norm of the channel applied to the
    difference (entangled minus embedded product); for d_R = d_A this equals
    the average distance of the channel output from omega_E (x) pi_R, and the
    right side matches the Haar decoupling lemma on the entangled input.
    The average runs over the C(d_A, d_R) image sets of the first d_R points,
    as in `verify_distance_from_classicality`.
    """
    d_a = ch.d_in
    d_r, (phi, _, pi) = _embedded_pair_states(d_a, d_r)
    st = phi - pi
    reps = image_set_perms(d_a, d_r)
    lhs = float(np.mean(channel_norms(ch, st, (d_a, d_r), reps, (2,))[:, 0] ** 2))
    return equality_report("perm_decoupling_lemma", lhs, perm_lemma_rhs(ch, d_r),
                           dims={"d_A": d_a, "d_R": d_r, "d_E": ch.d_out})


def verify_quantum_hash(rho: DensityOp, d_a1: int, d_a2: int) -> VerificationReport:
    """Fully quantum hash bound sqrt(2 d_A1 2^(-Hmin)) under the permutation
    group; meta['two_norm_check'] carries the intermediate squared-2-norm bound.

    tr_A2 sees no relabelling of A2 and pi_A1 (x) rho_R none of A1, so both
    averages run over one permutation per coset of S_d_A1 x S_d_A2,
    d_A!/(d_A1! d_A2!) of them (at most 8! = 40 320).
    """
    d_a, d_r = rho.dims
    d_a1, d_a2 = _split(d_a, d_a1, d_a2)
    whole(d_a, "d_A", 4)
    tr_a2 = _trace_out(d_a1, d_a2)
    reps = split_coset_perms(d_a1, d_a2)
    lhs = float(np.mean(_deviation_norms(tr_a2, rho.mat, rho.dims, reps, 1)))
    res = h_min_cond(rho.mat, rho.dims)
    hmin = res.value
    rhs = float(np.sqrt(2 * d_a1 * 2.0 ** (-hmin)))
    report = _certified(bound_report("quantum_hash", lhs, rhs, hmin=hmin,
                                     dims={"d_A1": d_a1, "d_A2": d_a2, "d_R": d_r}), [res])

    # intermediate 2-norm inequality for the min-entropy-optimally sandwiched state
    zeta = res.optimizer
    sandwich = tensor(np.eye(d_a), mpow(zeta, -0.25))
    tilde = sandwich @ rho.mat @ sandwich
    tilde_cl = pinch_mat(tilde, rho.dims)
    lhs2 = float(np.mean(_deviation_norms(tr_a2, tilde, rho.dims, reps, 2) ** 2))
    rhs2 = ((d_a1 - 1) / (d_a - 1) * schatten_norm(tilde, 2) ** 2
            + (d_a1 - 1) * (d_a2 - 1) / (d_a - 1) * schatten_norm(tilde_cl, 2) ** 2
            + schatten_norm(tilde, 2) ** 2)
    report.meta["two_norm_check"] = bound_report(
        "quantum_hash_2norm", lhs2, rhs2, BOUND_TOL,
        dims={"d_A1": d_a1, "d_A2": d_a2, "d_R": d_r})
    return report
