"""Randomized check suites grouped by theme, shared by the CLI and the tests.

Every random instance is drawn from its own seed, which `_instances` derives
from the suite seed, the check's tag and the instance index, so a full run is
deterministic for a fixed configuration and one instance can be drawn again
alone. A check that reports the worst of many instances reduces them with
`_worst_of`, which names the worst instance in the record's meta.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from math import factorial
from typing import Callable

import numpy as np

from . import symgroup, twirl, verify
from ._groupavg import ElementSet, orbit_mean
from .entropy import (
    generalized_trace_distance,
    h2_cond,
    h_min_cond,
    purified_distance,
)
from .linalg import schatten_norm, swap_operator, tensor, whole
from .states import (
    classical_correlated,
    cq_decoupling_state,
    max_entangled,
    random_channel,
    random_cq,
    random_density,
)
from .symgroup import (
    affine_family,
    all_perms,
    char_closed_forms,
    chi_r,
    class_representative,
    class_size,
    mn_character,
    pairwise_dependence,
    partitions,
    perm_operator,
)
from .verify import VerificationReport, _certified, bound_report, equality_report


@dataclass(frozen=True)
class Check:
    name: str
    suite: str
    run: Callable[[], list]


@dataclass
class SuiteConfig:
    suite: str = "all"
    dims: tuple | None = None
    seed: int = 0
    output: str = "text"
    out_path: str | None = None


def _instance_seed(seed, tag, k) -> int:
    tag_num = zlib.crc32(tag.encode())
    return int(np.random.default_rng([seed, tag_num, k]).integers(2**31))


def _instances(cfg: SuiteConfig, tag: str, n: int, base: int = 0):
    """(k, seed) of the instances k = 0 .. n-1 of a check; the seed depends
    only on the suite seed, the check's tag and base + k."""
    for k in range(n):
        yield k, _instance_seed(cfg.seed, tag, base + k)


def _worst_of(cfg: SuiteConfig, tag: str, n: int, measure, base: int = 0) -> list:
    """(name, value, where) for each array of values that measure(seeds)
    names, one value per seed of the n instances of `_instances`: its first
    largest, by np.argmax, and in `where` the worst_k and worst_seed of that
    instance, for the record's meta. NaN counts as the largest, so a NaN
    instance fails the record and is the one named."""
    seeds = [s for _, s in _instances(cfg, tag, n, base)]
    out = []
    for name, vals in measure(seeds).items():
        k = int(np.argmax(vals))
        out.append((name, float(vals[k]), {"worst_k": k, "worst_seed": seeds[k]}))
    return out


def _per_shape(draws: list, measure) -> dict:
    """measure evaluated on one stack per shape of the draws, in instance
    order: draws[i] is a tuple of arrays drawn for instance i, and
    measure(*stacks) maps the stacked tuples of one shape to {name: values}."""
    shapes = [tuple(a.shape for a in draw) for draw in draws]
    out = {}
    for shape in dict.fromkeys(shapes):
        idx = [i for i, sh in enumerate(shapes) if sh == shape]
        stacks = (np.stack(col) for col in zip(*(draws[i] for i in idx)))
        for name, vals in measure(*stacks).items():
            out.setdefault(name, np.empty(len(draws)))[idx] = vals
    return out


def _dims_or(cfg: SuiteConfig, default, lo, hi):
    """Requested dimensions clipped to a check's supported range.

    An empty result means the check is skipped for this configuration; the
    runner treats a fully empty suite as a configuration error and names the
    requested dimensions that no record has as its d_A.
    """
    src = cfg.dims if cfg.dims else default
    return [d for d in dict.fromkeys(src) if lo <= d <= hi]


# ---------------------------------------------------------------------------
# Haar decoupling (suite ch2)
# ---------------------------------------------------------------------------

def check_decoupling_lemma(cfg: SuiteConfig):
    reports = []
    for d_a in _dims_or(cfg, (2, 3, 4), 2, 6):
        for d_r, d_e in ((2, 2), (2, 3), (3, 2)):
            for k, s in _instances(cfg, "declem", 2, base=1000 * d_a + 100 * d_r + 10 * d_e):
                rng = np.random.default_rng(s)
                herm = rng.normal(size=(d_a * d_r, d_a * d_r)) \
                    + 1j * rng.normal(size=(d_a * d_r, d_a * d_r))
                herm = (herm + herm.conj().T) / 2
                ch = random_channel(d_a, d_e, tp=bool(k % 2), seed=s + 1)
                rep = verify.verify_decoupling_lemma(herm, (d_a, d_r), ch)
                rep.meta["seed"] = s
                reports.append(rep)
    reports.append(mc_cross_check(cfg.seed, n_mc=10_000))
    return reports


def mc_cross_check(seed, n_mc: int) -> VerificationReport:
    """Monte Carlo Haar average of the squared 2-norm deviation at d_A = 2,
    compared with the closed right side within three standard errors. The
    samples are drawn and scored one kernel chunk at a time
    (`verify._haar_deviation_norms`)."""
    rng = np.random.default_rng([seed, 77])
    d_a = d_r = d_e = 2
    rho = random_density(d_a * d_r, seed=int(rng.integers(2**31)), dims=(d_a, d_r))
    ch = random_channel(d_a, d_e, tp=False, seed=int(rng.integers(2**31)))
    vals = verify._haar_deviation_norms(rho, ch, n_mc, rng, 2) ** 2
    rhs = verify.haar_lemma_rhs(rho.mat, rho.dims, ch)
    lhs, se = verify.mean_se(vals)
    return equality_report("decoupling_lemma_mc", lhs, rhs, 1e-12, se=se,
                           n_samples=n_mc, seed=seed)


def _haar_sampled(cfg: SuiteConfig, tag: str, verifier):
    """Three instances of a Haar-sampled decoupling bound, each averaged over the
    verifier's default 200 samples, at the largest requested d_A."""
    dims = _dims_or(cfg, (4,), 2, 6)
    if not dims:
        return []
    d_a = max(dims)
    return [verifier(random_density(d_a * 2, seed=s, dims=(d_a, 2)),
                     random_channel(d_a, 2, tp=True, seed=s + 1), seed=s + 2)
            for _, s in _instances(cfg, tag, 3)]


def check_decoupling_theorem(cfg: SuiteConfig):
    return _haar_sampled(cfg, "dectheo", verify.verify_decoupling_theorem)


def check_improved_decoupling(cfg: SuiteConfig):
    return _haar_sampled(cfg, "improved", verify.verify_improved_decoupling)


# ---------------------------------------------------------------------------
# designs and random circuits (suite ch3)
# ---------------------------------------------------------------------------

def check_design_clifford(cfg: SuiteConfig):
    ens = twirl.clifford_1q()
    eps = twirl.design_epsilon_bound(ens, 2)
    reports = [equality_report("clifford_epsilon_zero", eps, 0.0, 1e-10)]
    for _, s in _instances(cfg, "cliffdec", 3):
        rho = random_density(4, seed=s, dims=(2, 2))
        ch = random_channel(2, 2, tp=True, seed=s + 1)
        reports.append(verify.verify_design_decoupling(ens, rho, ch, epsilon=eps))
    return reports


def check_design_circuits(cfg: SuiteConfig):
    [(_, s)] = _instances(cfg, "circdec", 1)
    ens = twirl.circuit_ensemble(2, 30, 200, seed=s)
    rho = random_density(8, seed=s + 1, dims=(4, 2))
    ch = random_channel(4, 2, tp=True, seed=s + 2)
    return [verify.verify_design_decoupling(ens, rho, ch)]


def run_circuit_study(n_qubits: int, depths, trials: int, seed: list):
    """(depth, epsilon-bound) pairs for ensembles of random circuits, one
    per distinct depth, in first-seen order; the ensemble of depth t is drawn
    from the seed sequence seed + [t]."""
    d = 2 ** whole(n_qubits, "n_qubits", 2, 3)
    out = []
    for t in dict.fromkeys(whole(t, "depth", 0) for t in depths):
        ens = twirl.circuit_ensemble(n_qubits, t, trials, seed=seed + [t])
        out.append((t, twirl.design_epsilon_bound(ens, d)))
    return out


def check_circuit_trend(cfg: SuiteConfig):
    """Mean epsilon of five 50-circuit ensembles falls from depth 2 to 30."""
    eps_lo, eps_hi = (np.mean([run_circuit_study(2, [t], 50, seed=[cfg.seed, k])[0][1]
                               for k in range(5)]) for t in (2, 30))
    return [bound_report("circuit_trend", float(eps_hi), float(eps_lo), tol=0.0,
                         depths={"shallow": 2, "deep": 30}, trials=50, n_seeds=5)]


# ---------------------------------------------------------------------------
# CQ states under the full permutation group (suite ch5)
# ---------------------------------------------------------------------------

def _pair_state_residuals(d: int):
    """Largest entry of the exact P (x) P average of each classical pair
    state |ij><ij| minus its closed form."""
    tee = classical_correlated(d).mat * d
    for i in range(d):
        for j in range(d):
            e = np.zeros((d,) * 4)
            e[i, j, i, j] = 1.0
            avg = orbit_mean(e, d, 4).reshape(d * d, d * d)
            delta = 1.0 if i == j else 0.0
            closed = ((1 - delta) / (d * d - d) * np.eye(d * d)
                      - (1 - delta) / (d - 1) * tee / d + delta * tee / d)
            yield float(np.abs(avg - closed).max())


def check_pair_state_twirl(cfg: SuiteConfig):
    """Exact P (x) P averages of classical pair states match the closed form."""
    return [equality_report(f"pair_state_twirl[d={d}]", max(_pair_state_residuals(d)), 0.0, 1e-12)
            for d in _dims_or(cfg, (2, 3, 4), 2, 5)]


def check_doubled_classical_twirl(cfg: SuiteConfig):
    """Exact (P (x) 1)^t2 average of the doubled classical decoupling state.

    With lam[a, a', r, r'] = <a r|lambda|a' r'>, the doubled state on
    A1 R1 A2 R2 is laid out as the real tensor [a, a', b, b', r, r', s, s']
    with the four permuted A indices first, so the average is one orbit mean
    and its closed form, the doubled state with its factors ordered
    A1 A2 R1 R2 over d - 1, is the outer product of lam with itself.
    """
    reports = []
    for d in _dims_or(cfg, (2, 3, 4), 2, 5):
        lam = cq_decoupling_state(d).real.reshape(d, d, d, d).transpose(0, 2, 1, 3)
        avg = orbit_mean(np.einsum('xyrs,zwtu->xyzwrstu', lam, lam), d, 4)
        closed = np.multiply.outer(lam, lam) / (d - 1)
        reports.append(equality_report(
            f"doubled_classical_twirl[d={d}]", float(np.abs(avg - closed).max()), 0.0, 1e-12))
    return reports


def check_cq_lemma(cfg: SuiteConfig):
    reports = []
    for d_a in _dims_or(cfg, (3, 4), 2, 6):
        for k, s in _instances(cfg, "cqlem", 5, base=100 * d_a):
            rho = random_cq((d_a, 2), seed=s)
            ch = random_channel(d_a, 2, tp=bool(k % 2), seed=s + 1)
            rep = verify.verify_cq_decoupling_lemma(rho, ch)
            rep.meta["seed"] = s
            reports.append(rep)
    return reports


def check_cq_hash(cfg: SuiteConfig):
    return [verify.verify_cq_hash(random_cq((4, 2), seed=s), 2, 2)
            for _, s in _instances(cfg, "cqhash", 10)]


def check_cq_tpcp(cfg: SuiteConfig):
    return [verify.verify_cq_tpcp(random_cq((4, 2), seed=s),
                                  random_channel(4, 2, tp=True, seed=s + 1))
            for _, s in _instances(cfg, "cqtpcp", 10)]


def check_cq_general(cfg: SuiteConfig):
    return [verify.verify_cq_general(random_cq((4, 2), seed=s),
                                     random_channel(4, 2, tp=bool(k % 2), seed=s + 1))
            for k, s in _instances(cfg, "cqgen", 10)]


# ---------------------------------------------------------------------------
# almost independent permutation families (suite ch6)
# ---------------------------------------------------------------------------

def check_affine_family(cfg: SuiteConfig):
    return [equality_report(f"affine_pairwise[n={n}]",
                            pairwise_dependence(affine_family(n), 2 ** n), 0.0, 1e-12)
            for n in (1, 2, 3)]


def check_family_hash(cfg: SuiteConfig):
    reports = []
    fams = {
        "affine": affine_family(2),
        "full_group": ElementSet(all_perms(4)),
        "singleton": ElementSet((tuple(range(4)),)),
    }
    for label, fam in fams.items():
        for _, s in _instances(cfg, "famhash" + label, 10):
            rep = verify.verify_family_hash(fam, random_cq((4, 2), seed=s), 2, 2)
            rep.name = f"family_hash[{label}]"
            reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# fully quantum permutation decoupling (suite ch7)
# ---------------------------------------------------------------------------

def check_gramian(cfg: SuiteConfig):
    reports = []
    for d in (4, 5, 6, 7, 8):
        basis = twirl.commutant_basis(d)
        numeric = np.array([[np.trace(a @ b).real for b in basis.ops] for a in basis.ops])
        reports.append(equality_report(
            f"gramian_closed_form[d={d}]", float(np.abs(numeric - basis.gram).max()), 0.0, 1e-9))
        resid = float(np.abs(basis.gram @ basis.gram_inv - np.eye(11)).max())
        reports.append(equality_report(f"gramian_inverse[d={d}]", resid, 0.0, 1e-9))
    # at d = 3 the 11 operators span only the 10-dimensional commutant
    reports.append(equality_report("gramian_singular_d3",
                                   float(np.linalg.matrix_rank(twirl.gram_closed_form(3))),
                                   float(twirl.commutant_dim_brute(3)), 0.0))
    return reports


def check_commutant_dim(cfg: SuiteConfig):
    return [equality_report(f"commutant_dim[d={d}]", float(twirl.commutant_dim_brute(d)), dim,
                            1e-12) for d, dim in ((4, 11.0), (5, 11.0), (3, 10.0))]


def _perm_twirl_residual(d: int, seed) -> float:
    """Relative 2-norm distance between the commutant-formula twirl of one
    random swap-symmetric Hermitian operator and its S_d orbit mean."""
    f = swap_operator(d)
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    h = (h + h.conj().T) / 2
    h = (h + f @ h @ f) / 2
    exact = twirl.perm_twirl2_exact(h, d).reconstructed
    mean = orbit_mean(h.reshape((d,) * 4), d, 4).reshape(d * d, d * d)
    return schatten_norm(exact - mean, 2) / schatten_norm(h, 2)


def check_perm_twirl_projection(cfg: SuiteConfig):
    return [equality_report(name, v, 0.0, 1e-9, **where) for d in (4, 5)
            for name, v, where in _worst_of(
                cfg, "permtw", 5,
                lambda seeds: {f"perm_twirl_projection[d={d}]":
                               [_perm_twirl_residual(d, s) for s in seeds]},
                base=10 * d)]


def check_distance_from_classicality(cfg: SuiteConfig):
    reports = []
    d_a = 4
    for k, s in _instances(cfg, "distcl", 5, base=10 * d_a):
        d_r = 2 + (k % d_a) % (d_a - 1)
        ch = random_channel(d_a, 2, tp=bool(k % 2), seed=s)
        reports.append(verify.verify_distance_from_classicality(ch, d_r))
    return reports


def check_perm_decoupling(cfg: SuiteConfig):
    reports = []
    d_a = 4
    for k, s in _instances(cfg, "permdec", 5, base=10 * d_a):
        d_r = 2 + k % (d_a - 1)
        ch = random_channel(d_a, 2, tp=bool(k % 2), seed=s)
        reports.append(verify.verify_perm_decoupling_lemma(ch, d_r))
    return reports


def check_perm_vs_haar_rhs(cfg: SuiteConfig):
    """At d_R = d_A the permutation lemma right side equals the Haar lemma
    right side on the embedded entangled input."""
    reports = []
    d_a = 4
    for _, s in _instances(cfg, "permhaar", 5):
        ch = random_channel(d_a, 2, tp=False, seed=s)
        phi = max_entangled(d_a)
        rhs_haar = verify.haar_lemma_rhs(phi.mat, phi.dims, ch)
        reports.append(equality_report("perm_vs_haar_rhs", verify.perm_lemma_rhs(ch, d_a),
                                       rhs_haar, 1e-10))
    return reports


def check_quantum_hash(cfg: SuiteConfig):
    return [verify.verify_quantum_hash(random_density(8, seed=s, dims=(4, 2)), 2, 2)
            for _, s in _instances(cfg, "qhash", 10)]


# ---------------------------------------------------------------------------
# group theory
# ---------------------------------------------------------------------------

def check_characters_closed_forms(cfg: SuiteConfig):
    reports = []
    for d in (4, 5, 6, 7):
        worst = max(abs(mn_character(lam, mu) - c)
                    for mu in partitions(d)
                    for lam, c in char_closed_forms(mu).items())
        reports.append(equality_report(f"characters_closed[d={d}]", float(worst), 0.0, 1e-12))
    return reports


def _chi_r_residuals(d: int):
    """For each class and S2 irrep, chi_R minus its decomposition into the
    closed-form characters, then minus the numeric trace."""
    for mu in partitions(d):
        c_triv, c_std, c_col, c_row = char_closed_forms(mu).values()
        pm = perm_operator(class_representative(mu))
        for s2, sign in (((1, 1), 1), ((2,), -1)):
            direct = chi_r(mu, s2)
            # chi of S2 irreps: symmetric always 1, antisymmetric is the sign
            combo = (2 * c_triv * 1 + 2 * c_std * 1 + c_std * sign
                     + c_col * sign + c_row * 1)
            yield abs(direct - combo)
            # numeric trace of the doubled permutation representation
            op = tensor(pm, pm) @ (np.eye(d * d) if s2 == (1, 1) else swap_operator(d))
            yield abs(np.trace(op).real - direct)


def check_chi_r_decomposition(cfg: SuiteConfig):
    return [equality_report(f"chi_R_decomposition[d={d}]", float(max(_chi_r_residuals(d))),
                            0.0, 1e-9)
            for d in (4, 5, 6)]


def check_character_orthogonality(cfg: SuiteConfig):
    reports = []
    for d in (4, 5):
        parts = partitions(d)
        worst = max(abs(sum(class_size(mu) * mn_character(lam, mu) * mn_character(nu, mu)
                            for mu in parts) - (factorial(d) if lam == nu else 0))
                    for lam in parts for nu in parts)
        reports.append(equality_report(f"character_orthogonality[d={d}]", worst, 0.0, 1e-12))
    return reports


def check_hook_dimensions(cfg: SuiteConfig):
    worst = max(abs(symgroup.hook_dimension(lam) - mn_character(lam, (1,) * d))
                for d in (4, 5, 6, 7) for lam in partitions(d))
    return [equality_report("hook_vs_identity_character", float(worst), 0.0, 1e-12)]


# ---------------------------------------------------------------------------
# entropy and metric properties
# ---------------------------------------------------------------------------

def _hmin_records(seeds, solves: list) -> dict:
    """Both H_min records of one random state per seed, of any rank and of
    trace 0.3 to 1, from one H_min solve each, appended to `solves`:
    hmin_le_h2, the certified upper end of H_min minus the optimized H2 (an
    exact score at a feasible sigma, so a lower end of H2), which is solved
    without the H_min optimizer; and sdp_primal_feasibility, minus the solve's
    primal slack."""
    upper_minus_h2, infeasibility = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        d_a = int(rng.integers(2, 5))
        d_b = int(rng.integers(2, 5))
        rank = int(rng.integers(1, d_a * d_b + 1))
        scale = float(rng.uniform(0.3, 1.0))
        rho = random_density(d_a * d_b, rank=rank, seed=int(rng.integers(2**31)),
                             dims=(d_a, d_b))
        mat = rho.mat * scale
        res = h_min_cond(mat, rho.dims)
        solves.append(res)
        h2 = h2_cond(mat, rho.dims, optimize=True).value
        upper_minus_h2.append(res.meta["hmin_upper"] - h2)
        infeasibility.append(-res.meta["primal_slack"])
    return {"hmin_le_h2": np.array(upper_minus_h2),
            "sdp_primal_feasibility": np.array(infeasibility)}


def check_hmin_le_h2(cfg: SuiteConfig):
    """hmin_le_h2 and sdp_primal_feasibility, each the worst of the same 100
    states and failed unless all 100 H_min solves converged."""
    solves = []
    rhs_tol = {"hmin_le_h2": (0.0, 1e-6), "sdp_primal_feasibility": (1e-8, 0.0)}
    return [_certified(bound_report(name, v, *rhs_tol[name], n_states=100, **where), solves)
            for name, v, where in _worst_of(cfg, "hminh2", 100,
                                            lambda seeds: _hmin_records(seeds, solves))]


def _fvdg_excess(seeds) -> dict:
    """How far the random pair of each seed, sub-normalized half of the time,
    exceeds each side of the Fuchs-van de Graaf inequalities. Each pair is
    drawn alone; the distances run on one stack per dimension."""
    draws = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        normalized = bool(rng.integers(2))
        sc_r = 1.0 if normalized else float(rng.uniform(0.2, 1.0))
        sc_s = 1.0 if normalized else float(rng.uniform(0.2, 1.0))
        r = random_density(d, seed=int(rng.integers(2**31))).mat * sc_r
        s = random_density(d, seed=int(rng.integers(2**31))).mat * sc_s
        draws.append((r, s))

    def excess(r, s):
        dist = generalized_trace_distance(r, s)
        pur = purified_distance(r, s)
        return {"fvdg_lower": 0.5 * dist - pur, "fvdg_upper": pur - np.sqrt(dist)}

    return _per_shape(draws, excess)


def check_fuchs_van_de_graaf(cfg: SuiteConfig):
    return [bound_report(name, v, 0.0, tol=1e-8, n_pairs=1000, **where)
            for name, v, where in _worst_of(cfg, "fvdg", 1000, _fvdg_excess)]


def _norm_excess(seeds) -> dict:
    """How far the random triple A, B, C of each seed exceeds each
    Schatten-norm inequality: ||ABC||_p <= ||A||_inf ||B||_p ||C||_inf and
    Hoelder's. Each triple is drawn alone; the norms run on one stack per
    dimension."""
    draws = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        draws.append(tuple(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                           for _ in range(3)))

    def excess(a, b, c):
        abc = a @ b @ c
        a_inf = schatten_norm(a, "inf")
        c_inf = schatten_norm(c, "inf")
        sv = [np.linalg.svd(m, compute_uv=False) for m in (a, b, c)]
        hoelder_rhs = ((sv[0] ** 4).sum(axis=-1) ** 0.25 * (sv[1] ** 2).sum(axis=-1) ** 0.5
                       * (sv[2] ** 4).sum(axis=-1) ** 0.25)
        return {
            "triple_norm_inf": schatten_norm(abc, "inf") - a_inf * schatten_norm(b, "inf") * c_inf,
            "triple_norm_one": schatten_norm(abc, 1) - a_inf * schatten_norm(b, 1) * c_inf,
            "triple_norm_two": schatten_norm(abc, 2) - a_inf * schatten_norm(b, 2) * c_inf,
            "hoelder": schatten_norm(abc, 1) - hoelder_rhs,
        }

    return _per_shape(draws, excess)


def check_norm_inequalities(cfg: SuiteConfig):
    return [bound_report(name, v, 0.0, tol=1e-8, n_triples=500, **where)
            for name, v, where in _worst_of(cfg, "norms", 500, _norm_excess)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def build_checks(cfg: SuiteConfig) -> list[Check]:
    """The registered checks of cfg.suite ("all": every check), in table order.

    The table is the one place suite names are written; the CLI's --suite
    choices are read from it.
    """
    def c(name, suite, fn):
        return Check(name, suite, lambda: fn(cfg))

    table = [
        c("decoupling_lemma", "ch2", check_decoupling_lemma),
        c("decoupling_theorem", "ch2", check_decoupling_theorem),
        c("improved_decoupling", "ch2", check_improved_decoupling),
        c("design_clifford", "ch3", check_design_clifford),
        c("design_circuits", "ch3", check_design_circuits),
        c("circuit_trend", "ch3", check_circuit_trend),
        c("pair_state_twirl", "ch5", check_pair_state_twirl),
        c("doubled_classical_twirl", "ch5", check_doubled_classical_twirl),
        c("cq_lemma", "ch5", check_cq_lemma),
        c("cq_hash", "ch5", check_cq_hash),
        c("cq_tpcp", "ch5", check_cq_tpcp),
        c("cq_general", "ch5", check_cq_general),
        c("affine_family", "ch6", check_affine_family),
        c("family_hash", "ch6", check_family_hash),
        c("gramian", "ch7", check_gramian),
        c("commutant_dim", "ch7", check_commutant_dim),
        c("perm_twirl_projection", "ch7", check_perm_twirl_projection),
        c("distance_from_classicality", "ch7", check_distance_from_classicality),
        c("perm_decoupling", "ch7", check_perm_decoupling),
        c("perm_vs_haar_rhs", "ch7", check_perm_vs_haar_rhs),
        c("quantum_hash", "ch7", check_quantum_hash),
        c("characters_closed", "groups", check_characters_closed_forms),
        c("chi_R_decomposition", "groups", check_chi_r_decomposition),
        c("character_orthogonality", "groups", check_character_orthogonality),
        c("hook_dimensions", "groups", check_hook_dimensions),
        c("hmin_le_h2", "entropy", check_hmin_le_h2),
        c("fuchs_van_de_graaf", "entropy", check_fuchs_van_de_graaf),
        c("norm_inequalities", "entropy", check_norm_inequalities),
    ]
    if cfg.suite == "all":
        return table
    chosen = [t for t in table if t.suite == cfg.suite]
    if not chosen:
        raise ValueError(f"unknown suite {cfg.suite!r}")
    return chosen


def flatten_reports(reports) -> list[VerificationReport]:
    """Each report followed by every report nested in its meta, in meta order."""
    return [r for rep in reports for r in
            [rep] + [v for v in rep.meta.values() if isinstance(v, VerificationReport)]]
