"""Randomized check suites grouped by theme, shared by the CLI and the tests.

Every check owns its seed (derived from the suite seed and the instance
index), so a full run is deterministic for a fixed configuration.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from math import factorial
from typing import Callable

import numpy as np

from . import symgroup, twirl, verify
from ._groupavg import apply_channel_stack, group_mean, group_values, perm_stack
from .entropy import (
    generalized_trace_distance,
    h2_cond,
    h_min_cond,
    purified_distance,
)
from .linalg import schatten_norm, swap_operator, tensor
from .states import (
    DensityOp,
    classical_correlated,
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
    class_size,
    classical_diamond_distance,
    mn_character,
    pairwise_dependence,
    partition_to_counts,
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
    samples: int = 200
    tolerance: float = 1e-9
    optimize_sigma: bool = False
    output: str = "text"
    out_path: str | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


def _instance_seed(seed, tag, k) -> int:
    tag_num = zlib.crc32(tag.encode())
    return int(np.random.default_rng([seed, tag_num, k]).integers(2**31))


def _dims_or(cfg: SuiteConfig, default, lo, hi):
    """Requested dimensions clipped to a check's supported range.

    An empty result means the check is skipped for this configuration; the
    runner treats a fully empty suite as a configuration error and names the
    requested dimensions that no record has as its d_A.
    """
    src = cfg.dims if cfg.dims else default
    return [d for d in src if lo <= d <= hi]


# ---------------------------------------------------------------------------
# Haar decoupling (suite ch2)
# ---------------------------------------------------------------------------

def check_decoupling_lemma(cfg: SuiteConfig):
    reports = []
    for d_a in _dims_or(cfg, (2, 3, 4), 2, 6):
        for d_r, d_e in ((2, 2), (2, 3), (3, 2)):
            for k in range(2):
                s = _instance_seed(cfg.seed, "declem", 1000 * d_a + 100 * d_r + 10 * d_e + k)
                rng = np.random.default_rng(s)
                herm = rng.normal(size=(d_a * d_r, d_a * d_r)) \
                    + 1j * rng.normal(size=(d_a * d_r, d_a * d_r))
                herm = (herm + herm.conj().T) / 2
                ch = random_channel(d_a, d_e, tp=bool(k % 2), seed=s + 1)
                rep = verify.verify_decoupling_lemma(herm, (d_a, d_r), ch, tol=cfg.tolerance)
                rep.meta["seed"] = s
                reports.append(rep)
    reports.append(mc_cross_check(cfg.seed, n_mc=min(cfg.samples * 50, 100_000)))
    return reports


def mc_cross_check(seed, n_mc: int = 100_000) -> VerificationReport:
    """Monte Carlo Haar average of the squared 2-norm deviation at d_A = 2,
    compared with the closed right side within three standard errors.

    Samples are drawn in one batch by twirl.haar_samples and contracted by
    the group-average kernel, so 10^5 unitaries are cheap.
    """
    rng = np.random.default_rng([seed, 77])
    d_a = d_r = d_e = 2
    rho = random_density(d_a * d_r, seed=int(rng.integers(2**31)), dims=(d_a, d_r))
    ch = random_channel(d_a, d_e, tp=False, seed=int(rng.integers(2**31)))
    us = twirl.haar_samples(d_a, n_mc, rng)
    target = tensor(ch.env_marginal, rho.marginal([1]))
    vals = group_values(rho.mat, rho.dims, us, lambda stack: schatten_norm(
        apply_channel_stack(ch, stack, d_r) - target, 2) ** 2)
    rhs = verify.haar_lemma_rhs(rho.mat, rho.dims, ch)
    se = float(vals.std(ddof=1) / np.sqrt(n_mc))
    lhs = float(vals.mean())
    ok = abs(lhs - rhs) <= 3 * se + 1e-12
    return VerificationReport("decoupling_lemma_mc", "equality", lhs, rhs, 3 * se, ok,
                              {"se": se, "n_samples": n_mc, "seed": seed})


def check_decoupling_theorem(cfg: SuiteConfig):
    reports = []
    dims = _dims_or(cfg, (4,), 2, 6)
    if not dims:
        return reports
    d_a = max(dims)
    for k in range(3):
        s = _instance_seed(cfg.seed, "dectheo", k)
        rho = random_density(d_a * 2, seed=s, dims=(d_a, 2))
        ch = random_channel(d_a, 2, tp=True, seed=s + 1)
        reports.append(verify.verify_decoupling_theorem(
            rho, ch, n_samples=cfg.samples, seed=s + 2, optimize_sigma=cfg.optimize_sigma))
    return reports


def check_improved_decoupling(cfg: SuiteConfig):
    reports = []
    dims = _dims_or(cfg, (4,), 2, 6)
    if not dims:
        return reports
    d_a = max(dims)
    for k in range(3):
        s = _instance_seed(cfg.seed, "improved", k)
        rho = random_density(d_a * 2, seed=s, dims=(d_a, 2))
        ch = random_channel(d_a, 2, tp=True, seed=s + 1)
        reports.append(verify.verify_improved_decoupling(rho, ch, n_samples=cfg.samples, seed=s + 2))
    return reports


# ---------------------------------------------------------------------------
# designs and random circuits (suite ch3)
# ---------------------------------------------------------------------------

def check_design_clifford(cfg: SuiteConfig):
    ens = twirl.clifford_1q()
    eps = twirl.design_epsilon_bound(ens, 2)
    reports = [equality_report("clifford_epsilon_zero", eps, 0.0, 1e-10)]
    for k in range(3):
        s = _instance_seed(cfg.seed, "cliffdec", k)
        rho = random_density(4, seed=s, dims=(2, 2))
        ch = random_channel(2, 2, tp=True, seed=s + 1)
        reports.append(verify.verify_design_decoupling(
            ens, rho, ch, optimize_sigma=cfg.optimize_sigma))
    return reports


def check_design_circuits(cfg: SuiteConfig):
    s = _instance_seed(cfg.seed, "circdec", 0)
    ens = twirl.circuit_ensemble(2, 30, 200, seed=s)
    rho = random_density(8, seed=s + 1, dims=(4, 2))
    ch = random_channel(4, 2, tp=True, seed=s + 2)
    return [verify.verify_design_decoupling(ens, rho, ch, optimize_sigma=cfg.optimize_sigma)]


def run_circuit_study(n_qubits: int, depths, trials: int, seed=0):
    """(depth, epsilon-bound) pairs for ensembles of random circuits."""
    if n_qubits not in (2, 3):
        raise ValueError("circuit study supports 2 or 3 qubits")
    d = 2 ** n_qubits
    base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    out = []
    for t in depths:
        ens = twirl.circuit_ensemble(n_qubits, int(t), trials, seed=base + [int(t)])
        out.append((int(t), twirl.design_epsilon_bound(ens, d)))
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

def check_pair_state_twirl(cfg: SuiteConfig):
    """Exhaustive P (x) P averages of classical pair states match the closed form."""
    reports = []
    for d in _dims_or(cfg, (2, 3, 4), 2, 5):
        tee = classical_correlated(d).mat * d
        worst = 0.0
        group = perm_stack(all_perms(d))
        for i in range(d):
            for j in range(d):
                e = np.zeros((d * d, d * d))
                e[i * d + j, i * d + j] = 1.0
                avg = group_mean(e, (d, d), group, sites=(0, 1))
                delta = 1.0 if i == j else 0.0
                closed = ((1 - delta) / (d * d - d) * np.eye(d * d)
                          - (1 - delta) / (d - 1) * tee / d + delta * tee / d)
                worst = max(worst, float(np.abs(avg - closed).max()))
        reports.append(equality_report(f"pair_state_twirl[d={d}]", worst, 0.0, 1e-12))
    return reports


def check_doubled_classical_twirl(cfg: SuiteConfig):
    """Exhaustive (P (x) 1)^t2 average of the doubled classical decoupling state."""
    from .linalg import permute_systems
    from .states import cq_decoupling_state

    reports = []
    for d in _dims_or(cfg, (2, 3, 4), 2, 5):
        lam = cq_decoupling_state(d)
        acc = group_mean(tensor(lam, lam), (d, d, d, d), perm_stack(all_perms(d)), sites=(0, 2))
        closed = permute_systems(tensor(lam, lam), (d, d, d, d), [0, 2, 1, 3]) / (d - 1)
        reports.append(equality_report(
            f"doubled_classical_twirl[d={d}]", float(np.abs(acc - closed).max()), 0.0, 1e-12))
    return reports


def check_cq_lemma(cfg: SuiteConfig):
    reports = []
    for d_a in _dims_or(cfg, (3, 4), 2, 6):
        for k in range(5):
            s = _instance_seed(cfg.seed, "cqlem", 100 * d_a + k)
            rho = random_cq((d_a, 2), seed=s)
            ch = random_channel(d_a, 2, tp=bool(k % 2), seed=s + 1)
            rep = verify.verify_cq_decoupling_lemma(rho, ch, tol=cfg.tolerance)
            rep.meta["seed"] = s
            reports.append(rep)
    return reports


def check_cq_hash(cfg: SuiteConfig):
    reports = []
    for k in range(10):
        s = _instance_seed(cfg.seed, "cqhash", k)
        rho = random_cq((4, 2), seed=s)
        reports.append(verify.verify_cq_hash(rho, 2, 2))
    return reports


def check_cq_tpcp(cfg: SuiteConfig):
    reports = []
    for k in range(10):
        s = _instance_seed(cfg.seed, "cqtpcp", k)
        rho = random_cq((4, 2), seed=s)
        ch = random_channel(4, 2, tp=True, seed=s + 1)
        reports.append(verify.verify_cq_tpcp(rho, ch, optimize_sigma=cfg.optimize_sigma))
    return reports


def check_cq_general(cfg: SuiteConfig):
    reports = []
    for k in range(10):
        s = _instance_seed(cfg.seed, "cqgen", k)
        rho = random_cq((4, 2), seed=s)
        ch = random_channel(4, 2, tp=bool(k % 2), seed=s + 1)
        reports.append(verify.verify_cq_general(rho, ch, optimize_sigma=cfg.optimize_sigma))
    return reports


# ---------------------------------------------------------------------------
# almost independent permutation families (suite ch6)
# ---------------------------------------------------------------------------

def check_affine_family(cfg: SuiteConfig):
    reports = []
    for n in (1, 2, 3):
        fam = affine_family(n)
        d = 2 ** n
        reports.append(equality_report(f"affine_size[n={n}]",
                                       float(len(fam)), float((d - 1) * d), 1e-12))
        reports.append(equality_report(f"affine_pairwise[n={n}]",
                                       pairwise_dependence(fam, d), 0.0, 1e-12))
        if d <= symgroup.MAX_DIAMOND_D:
            reports.append(equality_report(f"affine_diamond[n={n}]",
                                           classical_diamond_distance(fam, d), 0.0, 1e-12))
    return reports


def check_family_hash(cfg: SuiteConfig):
    reports = []
    fams = {
        "affine": affine_family(2),
        "full_group": symgroup.PermFamily(tuple(all_perms(4))),
        "singleton": symgroup.PermFamily((tuple(range(4)),)),
    }
    for label, fam in fams.items():
        for k in range(10):
            s = _instance_seed(cfg.seed, "famhash" + label, k)
            rho = random_cq((4, 2), seed=s)
            rep = verify.verify_family_hash(fam, rho, 2, 2,
                                            optimize_sigma=cfg.optimize_sigma)
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
    try:
        twirl.commutant_basis(3)
        raised = False
    except ValueError:
        raised = True
    reports.append(VerificationReport("gramian_singular_d3", "equality",
                                      0.0 if raised else 1.0, 0.0, 0.0, raised, {}))
    return reports


def check_commutant_dim(cfg: SuiteConfig):
    reports = []
    for d in (4, 5):
        dim = twirl.commutant_dim_brute(d)
        reports.append(equality_report(f"commutant_dim[d={d}]", float(dim), 11.0, 1e-12))
    dim3 = twirl.commutant_dim_brute(3)
    reports.append(bound_report("commutant_dim[d=3]", float(dim3), 10.0, tol=0.0))
    return reports


def check_perm_twirl_projection(cfg: SuiteConfig):
    reports = []
    for d in (4, 5):
        f = swap_operator(d)
        worst = 0.0
        for k in range(5):
            rng = np.random.default_rng(_instance_seed(cfg.seed, "permtw", 10 * d + k))
            h = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            h = (h + h.conj().T) / 2
            h = (h + f @ h @ f) / 2
            exact = twirl.perm_twirl2_exact(h, d).reconstructed
            brute = twirl.perm_twirl2_brute(h, d)
            worst = max(worst, schatten_norm(exact - brute, 2) / schatten_norm(h, 2))
        reports.append(equality_report(f"perm_twirl_projection[d={d}]", worst, 0.0, 1e-9))
    return reports


def check_distance_from_classicality(cfg: SuiteConfig):
    reports = []
    d_a = 4
    for k in range(5):
        s = _instance_seed(cfg.seed, "distcl", 10 * d_a + k)
        d_r = 2 + (k % d_a) % (d_a - 1)
        ch = random_channel(d_a, 2, tp=bool(k % 2), seed=s)
        reports.append(verify.verify_distance_from_classicality(
            ch, d_r, tol=cfg.tolerance, optimize_sigma=cfg.optimize_sigma))
    return reports


def check_perm_decoupling(cfg: SuiteConfig):
    reports = []
    d_a = 4
    for k in range(5):
        s = _instance_seed(cfg.seed, "permdec", 10 * d_a + k)
        d_r = 2 + k % (d_a - 1)
        ch = random_channel(d_a, 2, tp=bool(k % 2), seed=s)
        reports.append(verify.verify_perm_decoupling_lemma(ch, d_r, tol=cfg.tolerance))
    return reports


def check_perm_vs_haar_rhs(cfg: SuiteConfig):
    """At d_R = d_A the permutation lemma right side equals the Haar lemma
    right side on the embedded entangled input."""
    reports = []
    d_a = 4
    for k in range(5):
        s = _instance_seed(cfg.seed, "permhaar", k)
        ch = random_channel(d_a, 2, tp=False, seed=s)
        tr_w2 = schatten_norm(ch.choi, 2) ** 2
        tr_we2 = schatten_norm(ch.env_marginal, 2) ** 2
        rhs_perm = tr_w2 - tr_we2 / d_a   # the d_R = d_A specialization
        phi = max_entangled(d_a)
        rhs_haar = verify.haar_lemma_rhs(phi.mat, phi.dims, ch)
        reports.append(equality_report("perm_vs_haar_rhs", rhs_perm, rhs_haar, 1e-10))
    return reports


def check_quantum_hash(cfg: SuiteConfig):
    reports = []
    for k in range(10):
        s = _instance_seed(cfg.seed, "qhash", k)
        rho = random_density(8, seed=s, dims=(4, 2))
        reports.append(verify.verify_quantum_hash(rho, 2, 2))
    return reports


# ---------------------------------------------------------------------------
# group theory
# ---------------------------------------------------------------------------

def check_characters_closed_forms(cfg: SuiteConfig):
    reports = []
    for d in (4, 5, 6, 7):
        parts = [(d,), (d - 1, 1), (d - 2, 1, 1), (d - 2, 2)]
        worst = 0
        for lam in partitions(d):
            counts = partition_to_counts(lam)
            closed = char_closed_forms(d, counts)
            for part, c in zip(parts, closed):
                worst = max(worst, abs(mn_character(part, counts) - c))
        reports.append(equality_report(f"characters_closed[d={d}]", float(worst), 0.0, 1e-12))
    return reports


def class_representative(lam):
    """A permutation whose cycle lengths are the parts of the partition."""
    p = []
    start = 0
    for part in lam:
        p.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return tuple(p)


def check_chi_r_decomposition(cfg: SuiteConfig):
    reports = []
    for d in (4, 5, 6):
        worst = 0.0
        for lam in partitions(d):
            counts = partition_to_counts(lam)
            c_triv, c_std, c_col, c_row = char_closed_forms(d, counts)
            pm = perm_operator(class_representative(lam))
            for s2, sign in (((2, 0), 1), ((0, 1), -1)):
                direct = chi_r(d, counts, s2)
                # chi of S2 irreps: symmetric always 1, antisymmetric is the sign
                combo = (2 * c_triv * 1 + 2 * c_std * 1 + c_std * sign
                         + c_col * sign + c_row * 1)
                worst = max(worst, abs(direct - combo))
                # numeric trace of the doubled permutation representation
                op = tensor(pm, pm) @ (np.eye(d * d) if s2 == (2, 0) else swap_operator(d))
                worst = max(worst, abs(np.trace(op).real - direct))
        reports.append(equality_report(f"chi_R_decomposition[d={d}]", float(worst), 0.0, 1e-9))
    return reports


def check_character_orthogonality(cfg: SuiteConfig):
    reports = []
    for d in (4, 5):
        parts = partitions(d)
        worst = 0.0
        for lam in parts:
            for mu in parts:
                total = sum(class_size(partition_to_counts(c))
                            * mn_character(lam, partition_to_counts(c))
                            * mn_character(mu, partition_to_counts(c))
                            for c in parts)
                expect = factorial(d) if lam == mu else 0
                worst = max(worst, abs(total - expect))
        reports.append(equality_report(f"character_orthogonality[d={d}]", worst, 0.0, 1e-12))
    return reports


def check_hook_dimensions(cfg: SuiteConfig):
    worst = 0
    for d in (4, 5, 6, 7):
        identity = partition_to_counts((1,) * d)
        for lam in partitions(d):
            worst = max(worst, abs(symgroup.hook_dimension(lam)
                                   - mn_character(lam, identity)))
    return [equality_report("hook_vs_identity_character", float(worst), 0.0, 1e-12)]


# ---------------------------------------------------------------------------
# entropy and metric properties
# ---------------------------------------------------------------------------

def check_hmin_le_h2(cfg: SuiteConfig):
    worst = -np.inf
    solves = []
    for k in range(100):
        rng = np.random.default_rng(_instance_seed(cfg.seed, "hminh2", k))
        d_a = int(rng.integers(2, 5))
        d_b = int(rng.integers(2, 5))
        rank = int(rng.integers(1, d_a * d_b + 1))
        scale = float(rng.uniform(0.3, 1.0))
        rho = random_density(d_a * d_b, rank=rank, seed=int(rng.integers(2**31)),
                             dims=(d_a, d_b))
        rho = DensityOp(rho.mat * scale, rho.dims)
        res = h_min_cond(rho.mat, rho.dims)
        solves.append(res)
        h2 = h2_cond(rho.mat, rho.dims, optimize=True,
                     zeta_start=res.optimizer).value
        worst = max(worst, res.value - h2)
    return [_certified(bound_report("hmin_le_h2", float(worst), 0.0, tol=1e-6,
                                    n_states=100), solves)]


def check_h2_monotone(cfg: SuiteConfig):
    worst = -np.inf
    for k in range(40):
        s = _instance_seed(cfg.seed, "h2mono", k)
        rho = random_density(6, seed=s, dims=(3, 2))
        fixed = h2_cond(rho.mat, rho.dims).value
        opt = h2_cond(rho.mat, rho.dims, optimize=True).value
        worst = max(worst, fixed - opt)
    return [bound_report("h2_optimized_ge_fixed", float(worst), 0.0, tol=1e-9,
                         n_states=40)]


def check_sdp_feasibility(cfg: SuiteConfig):
    solves = []
    for k in range(40):
        s = _instance_seed(cfg.seed, "sdpfeas", k)
        rho = random_density(8, seed=s, dims=(4, 2))
        solves.append(h_min_cond(rho.mat, rho.dims))
    worst = min(res.meta["primal_slack"] for res in solves)
    return [_certified(bound_report("sdp_primal_feasibility", float(-worst), 1e-8, tol=0.0,
                                    n_states=40), solves)]


def check_fuchs_van_de_graaf(cfg: SuiteConfig):
    worst_lo = -np.inf
    worst_hi = -np.inf
    for k in range(1000):
        rng = np.random.default_rng(_instance_seed(cfg.seed, "fvdg", k))
        d = int(rng.integers(2, 5))
        normalized = bool(rng.integers(2))
        sc_r = 1.0 if normalized else float(rng.uniform(0.2, 1.0))
        sc_s = 1.0 if normalized else float(rng.uniform(0.2, 1.0))
        r = random_density(d, seed=int(rng.integers(2**31))).mat * sc_r
        s = random_density(d, seed=int(rng.integers(2**31))).mat * sc_s
        dist = generalized_trace_distance(r, s)
        pur = purified_distance(r, s)
        worst_lo = max(worst_lo, 0.5 * dist - pur)
        worst_hi = max(worst_hi, pur - np.sqrt(dist))
    return [
        bound_report("fvdg_lower", float(worst_lo), 0.0, tol=1e-8, n_pairs=1000),
        bound_report("fvdg_upper", float(worst_hi), 0.0, tol=1e-8, n_pairs=1000),
    ]


def check_norm_inequalities(cfg: SuiteConfig):
    worst = {"triple_norm_inf": -np.inf, "triple_norm_one": -np.inf,
             "triple_norm_two": -np.inf, "hoelder": -np.inf}
    for k in range(500):
        rng = np.random.default_rng(_instance_seed(cfg.seed, "norms", k))
        d = int(rng.integers(2, 6))
        mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3)]
        a, b, c = mats
        abc = a @ b @ c
        a_inf = schatten_norm(a, "inf")
        c_inf = schatten_norm(c, "inf")
        worst["triple_norm_inf"] = max(worst["triple_norm_inf"],
                                       schatten_norm(abc, "inf")
                                       - a_inf * schatten_norm(b, "inf") * c_inf)
        worst["triple_norm_one"] = max(worst["triple_norm_one"],
                                       schatten_norm(abc, 1)
                                       - a_inf * schatten_norm(b, 1) * c_inf)
        worst["triple_norm_two"] = max(worst["triple_norm_two"],
                                       schatten_norm(abc, 2)
                                       - a_inf * schatten_norm(b, 2) * c_inf)
        sv = [np.linalg.svd(m, compute_uv=False) for m in mats]
        hoelder_rhs = ((sv[0] ** 4).sum() ** 0.25 * (sv[1] ** 2).sum() ** 0.5
                       * (sv[2] ** 4).sum() ** 0.25)
        worst["hoelder"] = max(worst["hoelder"], schatten_norm(abc, 1) - hoelder_rhs)
    return [bound_report(name, float(v), 0.0, tol=1e-8, n_triples=500)
            for name, v in worst.items()]


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
        c("h2_monotone", "entropy", check_h2_monotone),
        c("sdp_feasibility", "entropy", check_sdp_feasibility),
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
