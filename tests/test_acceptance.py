"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

All tolerances and instance counts are pinned here; nothing is deferred to
later calibration. Run with `pytest -s` to see the per-criterion lines.
"""

import json
import subprocess
import sys
import time
from math import factorial

import numpy as np
import pytest

from declab.entropy import (
    HMIN_BRACKET_TOL,
    generalized_trace_distance,
    h2_cond,
    h_min_cond,
    purified_distance,
)
from declab.linalg import schatten_norm, swap_operator
from declab.states import random_channel, random_cq, random_density
from declab.suites import (
    SuiteConfig,
    check_pair_state_twirl,
    check_doubled_classical_twirl,
    mc_cross_check,
    run_circuit_study,
)
from declab.symgroup import (
    affine_family,
    char_closed_forms,
    class_size,
    classical_diamond_distance,
    mn_character,
    pairwise_dependence,
    partitions,
)
from declab import suites, twirl, verify


def report(num, ok, detail=""):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}"
    print(line)
    assert ok, line


def test_criterion_01_unitary_decoupling_lemma():
    t0 = time.time()
    worst = 0.0
    count = 0
    combos = [(d_a, d_r, d_e) for d_a in (2, 3, 4) for d_r in (2, 3) for d_e in (2, 3)]
    k = 0
    while count < 50:
        d_a, d_r, d_e = combos[k % len(combos)]
        rng = np.random.default_rng(1000 + k)
        herm = rng.normal(size=(d_a * d_r, d_a * d_r)) \
            + 1j * rng.normal(size=(d_a * d_r, d_a * d_r))
        herm = (herm + herm.conj().T) / 2
        ch = random_channel(d_a, d_e, tp=bool(k % 2), seed=2000 + k)
        rep = verify.verify_decoupling_lemma(herm, (d_a, d_r), ch)
        worst = max(worst, abs(rep.lhs - rep.rhs) / max(1.0, abs(rep.rhs)))
        count += 1
        k += 1
    mc = mc_cross_check(seed=0, n_mc=100_000)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and mc.passed and elapsed < 10.0
    report(1, ok, f"50 instances worst rel dev {worst:.2e}; "
                  f"MC |lhs-rhs|={abs(mc.lhs - mc.rhs):.2e} <= 3SE={3 * mc.meta['se']:.2e}; "
                  f"{elapsed:.1f}s")


def test_criterion_02_cq_decoupling_lemma():
    t0 = time.time()
    worst = 0.0
    for d_a in (2, 3, 4, 5):
        for k in range(30):
            rho = random_cq((d_a, 2), seed=3000 + 100 * d_a + k)
            ch = random_channel(d_a, 2, tp=bool(k % 2), seed=4000 + 100 * d_a + k)
            rep = verify.verify_cq_decoupling_lemma(rho, ch)
            worst = max(worst, abs(rep.lhs - rep.rhs) / max(1.0, abs(rep.rhs)))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 20.0
    report(2, ok, f"4 x 30 instances worst rel dev {worst:.2e}; {elapsed:.1f}s")


def test_criterion_03_pair_state_averages():
    cfg = SuiteConfig(seed=0, dims=(2, 3, 4, 5))
    reps = check_pair_state_twirl(cfg) + check_doubled_classical_twirl(cfg)
    worst = max(r.lhs for r in reps)
    ok = all(r.passed for r in reps) and worst <= 1e-12
    report(3, ok, f"permutation pair averages d=2..5, worst entrywise dev {worst:.2e}")


def test_criterion_04_gramian():
    worst_entry = 0.0
    worst_inv = 0.0
    for d in (4, 5, 6, 7, 8):
        basis = twirl.commutant_basis(d)
        numeric = np.array([[np.trace(a @ b).real for b in basis.ops]
                            for a in basis.ops])
        worst_entry = max(worst_entry, float(np.abs(numeric - basis.gram).max()))
        worst_inv = max(worst_inv, float(np.abs(basis.gram @ basis.gram_inv
                                                - np.eye(11)).max()))
    try:
        twirl.commutant_basis(3)
        raised = False
    except ValueError:
        raised = True
    ok = worst_entry <= 1e-9 and worst_inv <= 1e-9 and raised
    report(4, ok, f"all 121 entries d=4..8 dev {worst_entry:.2e}; "
                  f"G Ginv dev {worst_inv:.2e}; d=3 raises: {raised}")


def test_criterion_05_commutant_dimension():
    dims = {d: twirl.commutant_dim_brute(d) for d in (4, 5, 6)}
    ok = all(v == 11 for v in dims.values())
    report(5, ok, f"brute-force commutant dimensions {dims}")


def test_criterion_06_projection_vs_brute():
    t0 = time.time()
    worst = 0.0
    for d in (4, 5):
        f = swap_operator(d)
        for k in range(10):
            rng = np.random.default_rng(5000 + 10 * d + k)
            m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            m = (m + m.conj().T) / 2
            m = (m + f @ m @ f) / 2
            exact = twirl.perm_twirl2_exact(m, d).reconstructed
            brute = twirl.perm_twirl2_brute(m, d)
            worst = max(worst, schatten_norm(exact - brute, 2) / schatten_norm(m, 2))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    report(6, ok, f"20 operators, worst relative 2-norm dev {worst:.2e}; {elapsed:.1f}s")


def test_criterion_07_character_suite():
    worst_closed = 0
    for d in (4, 5, 6, 7):
        for mu in partitions(d):
            worst_closed = max(worst_closed, max(
                abs(c - mn_character(lam, mu))
                for lam, c in char_closed_forms(mu).items()))
    cfg = SuiteConfig(seed=0)
    chi_reports = suites.check_chi_r_decomposition(cfg)
    ortho_ok = True
    for d in (4, 5):
        parts = partitions(d)
        for lam in parts:
            for nu in parts:
                total = sum(class_size(mu) * mn_character(lam, mu) * mn_character(nu, mu)
                            for mu in parts)
                ortho_ok &= total == (factorial(d) if lam == nu else 0)
    chi_dims_ok = [r.name for r in chi_reports] == [f"chi_R_decomposition[d={d}]"
                                                   for d in (4, 5, 6)]
    ok = (worst_closed == 0 and chi_dims_ok and all(r.passed for r in chi_reports)
          and ortho_ok)
    report(7, ok, f"MN vs closed S4..S7 dev {worst_closed}; "
                  f"chi_R decomposition d=4..6; orthogonality S4, S5")


def test_criterion_08_affine_family():
    sizes_ok = True
    worst_dep = 0.0
    worst_diamond = 0.0
    for n in (1, 2, 3):
        fam = affine_family(n)
        d = 2 ** n
        sizes_ok &= len(fam) == (d - 1) * d
        worst_dep = max(worst_dep, pairwise_dependence(fam, d))
        if d <= 7:
            worst_diamond = max(worst_diamond, classical_diamond_distance(fam, d))
    ok = sizes_ok and worst_dep <= 1e-12 and worst_diamond <= 1e-12
    report(8, ok, f"sizes ok: {sizes_ok}; pairwise dev {worst_dep:.2e}; "
                  f"diamond dev {worst_diamond:.2e}")


def test_criterion_09_hash_suite():
    violations = []
    worst_eq = 0.0
    fam = affine_family(2)
    for k in range(30):
        rho_cq = random_cq((4, 2), seed=6000 + k)
        ch_tp = random_channel(4, 2, tp=True, seed=6100 + k)
        ch_cp = random_channel(4, 2, tp=False, seed=6200 + k)
        d_r = 2 + k % 3

        rep = verify.verify_cq_hash(rho_cq, 2, 2)                      # 5.2
        violations += [] if rep.passed else [("cq_hash", k)]
        rep = verify.verify_cq_tpcp(rho_cq, ch_tp)                     # 5.3
        violations += [] if rep.passed else [("cq_tpcp", k)]
        rep = verify.verify_cq_general(rho_cq, ch_cp)                  # 5.4
        violations += [] if rep.passed else [("cq_general", k)]
        rep = verify.verify_family_hash(fam, rho_cq, 2, 2)             # 6.2
        violations += [] if rep.passed else [("family_hash", k)]

        rep = verify.verify_distance_from_classicality(ch_cp, d_r)     # 7.3 both parts
        worst_eq = max(worst_eq, abs(rep.lhs - rep.rhs) / max(1.0, abs(rep.rhs)))
        violations += [] if rep.meta["bound_check"].passed else [("dc_bound", k)]
        rep = verify.verify_perm_decoupling_lemma(ch_cp, d_r)          # 7.4 equality
        worst_eq = max(worst_eq, abs(rep.lhs - rep.rhs) / max(1.0, abs(rep.rhs)))

        rho_q = random_density(8, seed=6300 + k, dims=(4, 2))          # 7.5
        rep = verify.verify_quantum_hash(rho_q, 2, 2)
        violations += [] if rep.passed else [("quantum_hash", k)]
        violations += [] if rep.meta["two_norm_check"].passed else [("qh_2norm", k)]
    ok = not violations and worst_eq <= 1e-9
    report(9, ok, f"30 instances each; violations {violations[:3]}; "
                  f"worst equality dev {worst_eq:.2e}")


def test_criterion_10_design_decoupling():
    ens = twirl.clifford_1q()
    eps = twirl.design_epsilon_bound(ens, 2)
    violations = []
    for k in range(5):
        rho = random_density(4, seed=7000 + k, dims=(2, 2))
        ch = random_channel(2, 2, tp=True, seed=7100 + k)
        rep = verify.verify_design_decoupling(ens, rho, ch)
        violations += [] if rep.passed else [("clifford", k)]
    circuits = twirl.circuit_ensemble(2, 30, 200, seed=7)
    rho = random_density(8, seed=7200, dims=(4, 2))
    ch = random_channel(4, 2, tp=True, seed=7201)
    rep = verify.verify_design_decoupling(circuits, rho, ch)
    violations += [] if rep.passed else [("circuits", 0)]
    ok = eps <= 1e-10 and not violations
    report(10, ok, f"clifford eps {eps:.2e}; violations {violations}")


def test_criterion_11_circuit_convergence():
    shallow, deep = [], []
    for k in range(5):
        pairs = run_circuit_study(2, [2, 30], 200, seed=[11, k])
        shallow.append(pairs[0][1])
        deep.append(pairs[1][1])
    eps2, eps30 = float(np.mean(shallow)), float(np.mean(deep))
    ok = eps30 < eps2
    report(11, ok, f"mean eps(depth 2) = {eps2:.3f} vs eps(depth 30) = {eps30:.3f}")


@pytest.fixture(scope="module")
def criterion_12_hmin():
    """Criterion 12's 500 random states of any rank, with their H_min solves."""
    rng_master = np.random.default_rng(12)
    solved = []
    for k in range(500):
        d_a = int(rng_master.integers(2, 5))
        d_b = int(rng_master.integers(2, 5))
        rank = int(rng_master.integers(1, d_a * d_b + 1))
        scale = float(rng_master.uniform(0.3, 1.0))
        rho = random_density(d_a * d_b, rank=rank,
                             seed=int(rng_master.integers(2**31)), dims=(d_a, d_b))
        mat = rho.mat * scale
        solved.append((mat, rho.dims, h_min_cond(mat, rho.dims)))
    return solved


def test_criterion_12_entropy_metric_properties(criterion_12_hmin):
    worst_l5 = -np.inf
    widest, unconverged = 0.0, 0
    for mat, dims, res in criterion_12_hmin:
        unconverged += res.meta["status"] != "converged"
        widest = max(widest, res.meta["hmin_upper"] - res.value)
        # H_min's certified upper end against the optimized H2, an exact
        # score at a feasible sigma, solved without the H_min optimizer
        h2 = h2_cond(mat, dims, optimize=True).value
        worst_l5 = max(worst_l5, res.meta["hmin_upper"] - h2)

    worst_fvdg = -np.inf
    for k in range(1000):
        rng = np.random.default_rng([12, 1, k])
        d = int(rng.integers(2, 5))
        sub = bool(rng.integers(2))
        sc = rng.uniform(0.2, 1.0, size=2) if sub else (1.0, 1.0)
        r = random_density(d, seed=int(rng.integers(2**31))).mat * sc[0]
        s = random_density(d, seed=int(rng.integers(2**31))).mat * sc[1]
        dist = generalized_trace_distance(r, s)
        pur = purified_distance(r, s)
        worst_fvdg = max(worst_fvdg, 0.5 * dist - pur, pur - np.sqrt(dist))

    worst_norm = -np.inf
    for k in range(500):
        rng = np.random.default_rng([12, 2, k])
        d = int(rng.integers(2, 6))
        a, b, c = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                   for _ in range(3))
        abc = a @ b @ c
        sv = [np.linalg.svd(m, compute_uv=False) for m in (a, b, c)]
        worst_norm = max(
            worst_norm,
            schatten_norm(abc, "inf") - sv[0][0] * sv[1][0] * sv[2][0],
            schatten_norm(abc, 1) - sv[0][0] * sv[1].sum() * sv[2][0],
            schatten_norm(abc, 2) - sv[0][0] * np.sqrt((sv[1] ** 2).sum()) * sv[2][0],
            schatten_norm(abc, 1) - ((sv[0] ** 4).sum() ** 0.25
                                     * (sv[1] ** 2).sum() ** 0.5
                                     * (sv[2] ** 4).sum() ** 0.25),
        )
    ok = (worst_l5 <= 1e-8 and worst_fvdg <= 1e-8 and worst_norm <= 1e-8
          and widest <= HMIN_BRACKET_TOL and unconverged == 0)
    report(12, ok, f"hmin<=h2 margin {worst_l5:.2e} (500); "
                   f"widest hmin bracket {widest:.2e} bits, {unconverged} unconverged; "
                   f"FvdG margin {worst_fvdg:.2e} (1000); "
                   f"norm margins {worst_norm:.2e} (500)")


def test_h_min_cond_newton_steps(criterion_12_hmin):
    # the damped step needs no line search: about 47 Newton steps a solve here
    steps = [res.meta["iterations"] for _, _, res in criterion_12_hmin]
    assert np.mean(steps) <= 55


def test_criterion_13_full_cli_suite(match_pinned):
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "declab", "verify", "--suite", "all",
         "--seed", "0", "--output", "json"],
        capture_output=True, text=True)
    elapsed = time.time() - t0
    records = json.loads(proc.stdout) if proc.returncode == 0 else []
    ok = proc.returncode == 0 and elapsed < 120.0 and len(records) > 100
    report(13, ok, f"exit {proc.returncode}, {len(records)} records, {elapsed:.1f}s")
    match_pinned(records, 0)
