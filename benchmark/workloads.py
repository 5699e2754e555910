"""Seeded inputs, per-item calls and output checks of the in-process workloads.

Inputs depend only on the seed and the pass size, and declab sees only the
generated states, channels and operators. Items call declab through module
attributes looked up at call time, so a traced pass sees the rebound
functions. Each item returns a digest of its outputs; a traced pass must
reproduce the untraced digests exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from declab import entropy, states, twirl, verify
from layers import FIXED_LE_OPT_TOL, HMIN_LE_H2_TOL, SLACK_TOL, flatten

# An untraced run makes PASSES passes over its items (see run.py), so a pass
# is sized for --seconds / PASSES from the cost of one block at the commit
# that defined the benchmark (2 cores, Python 3.11, numpy 2.4 with OpenBLAS
# pinned to one thread). The size is a function of --seconds alone, never of
# measured speed, so two commits always run the same items.
PASSES = 3
ENTROPY_BLOCK_S = 2.2      # one state for each (d_A, d_B) in {2,3,4}^2
GROUP_SET_S = 2.2          # one instance of each group item
PERM_DIMS = (5, 6)
TWIRL_PERM_TOL = 1e-9


@dataclass(frozen=True)
class Item:
    label: str
    fn: str                       # "module.function" in declab
    args: tuple
    kwargs: dict = field(default_factory=dict)


def blocks(seconds: float, block_s: float) -> int:
    return max(2, round(seconds / PASSES / block_s))


# ---------------------------------------------------------------------------
# entropy_batch: random bipartite states as in check_hmin_le_h2, stratified
# so every block holds one state per (d_A, d_B); the cost of an item depends
# mostly on d_B, so stratifying keeps the pass cost alike across seeds.
# ---------------------------------------------------------------------------

def entropy_inputs(seed: int, seconds: float) -> list[Item]:
    rng = np.random.default_rng([seed, 1])
    items = []
    for _ in range(blocks(seconds, ENTROPY_BLOCK_S)):
        for d_a, d_b in itertools.product((2, 3, 4), repeat=2):
            rank = int(rng.integers(1, d_a * d_b + 1))
            scale = float(rng.uniform(0.3, 1.0))
            rho = states.random_density(d_a * d_b, rank=rank, seed=int(rng.integers(2**31)),
                                        dims=(d_a, d_b))
            items.append(Item(f"entropy[{d_a}x{d_b},rank={rank}]", "entropy",
                              (rho.mat * scale, (d_a, d_b), len(items))))
    return items


def run_entropy(item: Item):
    mat, dims, k = item.args
    hmin = entropy.h_min_cond(mat, dims)
    opt = entropy.h2_cond(mat, dims, optimize=True, seed=k, zeta_start=hmin.optimizer)
    fixed = entropy.h2_cond(mat, dims)
    return hmin.value, opt.value, fixed.value, hmin.meta["primal_slack"]


def check_entropy(item: Item, out) -> bool:
    hmin, opt, fixed, slack = out
    return (hmin <= opt + HMIN_LE_H2_TOL and fixed <= opt + FIXED_LE_OPT_TOL
            and slack >= -SLACK_TOL)


# ---------------------------------------------------------------------------
# group_average: every verifier that loops over group elements, at the
# largest sizes the verifiers accept (d_A = 5 and 6, 720 permutations), plus
# the Haar-sampled verifiers at d_A = 6 and a 2-qubit depth-30 circuit
# ensemble at d = 4. All H2 values use a fixed sigma. The 3-qubit
# design_epsilon_bound (d = 8, about 44 s a call) is left out.
# ---------------------------------------------------------------------------

def _swap_symmetric_hermitian(rng, d: int) -> np.ndarray:
    n = d * d
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (h + h.conj().T) / 2
    swap = np.eye(n)[[(i % d) * d + i // d for i in range(n)]]
    return (h + swap @ h @ swap) / 2


def group_inputs(seed: int, seconds: float) -> list[Item]:
    rng = np.random.default_rng([seed, 2])

    def s() -> int:
        return int(rng.integers(2**31))

    items = []
    for k in range(blocks(seconds, GROUP_SET_S)):
        for d in PERM_DIMS:
            d_r = 2 + k % (d - 1)
            rho = states.random_cq((d, 2), seed=s())
            ch_tp = states.random_channel(d, 2, tp=True, seed=s())
            ch = states.random_channel(d, 2, tp=False, seed=s())
            items += [
                Item(f"cq_decoupling_lemma[d={d}]", "verify.verify_cq_decoupling_lemma",
                     (rho, ch)),
                Item(f"cq_tpcp[d={d}]", "verify.verify_cq_tpcp", (rho, ch_tp)),
                Item(f"distance_from_classicality[d={d}]",
                     "verify.verify_distance_from_classicality", (ch, d_r)),
                Item(f"perm_decoupling_lemma[d={d}]", "verify.verify_perm_decoupling_lemma",
                     (ch_tp, d_r)),
                Item(f"perm_twirl2_brute[d={d}]", "twirl.perm_twirl2_brute",
                     (_swap_symmetric_hermitian(rng, d), d)),
            ]
        rho_cq = states.random_cq((6, 2), seed=s())
        rho = states.random_density(12, seed=s(), dims=(6, 2))
        ch = states.random_channel(6, 2, tp=True, seed=s())
        items += [
            Item("cq_hash[3x2]", "verify.verify_cq_hash", (rho_cq, 3, 2)),
            Item("quantum_hash[3x2]", "verify.verify_quantum_hash", (rho, 3, 2)),
            Item("decoupling_theorem[d=6]", "verify.verify_decoupling_theorem", (rho, ch),
                 {"seed": s()}),
            Item("improved_decoupling[d=6]", "verify.verify_improved_decoupling", (rho, ch),
                 {"seed": s()}),
            Item("circuit_design[d=4]", "circuit_design",
                 (s(), states.random_density(8, seed=s(), dims=(4, 2)),
                  states.random_channel(4, 2, tp=True, seed=s()))),
        ]
    return items


_MODULES = {"verify": verify, "twirl": twirl}


def _circuit_design(seed, rho, ch):
    ens = twirl.circuit_ensemble(2, 30, 200, seed=seed)
    eps = twirl.design_epsilon_bound(ens, 4)
    return eps, verify.verify_design_decoupling(ens, rho, ch, epsilon=eps)


def run_group(item: Item):
    if item.fn == "circuit_design":
        return _circuit_design(*item.args)
    module, name = item.fn.split(".")
    return getattr(_MODULES[module], name)(*item.args, **item.kwargs)


def _reports_pass(report) -> bool:
    return all(r.passed for r in flatten(report))


def check_group(item: Item, out) -> bool:
    if item.fn == "twirl.perm_twirl2_brute":
        mat, d = item.args
        exact = twirl.perm_twirl2_exact(mat, d).reconstructed
        return bool(np.linalg.norm(exact - out) <= TWIRL_PERM_TOL * np.linalg.norm(mat))
    if item.fn == "circuit_design":
        eps, report = out
        return bool(np.isfinite(eps) and eps >= 0 and _reports_pass(report))
    return _reports_pass(out)


def group_digest(out):
    """What a traced pass must reproduce exactly."""
    if isinstance(out, np.ndarray):
        return out.tobytes()
    if isinstance(out, tuple):
        return tuple(group_digest(x) for x in out)
    if isinstance(out, float):
        return out
    return tuple((r.name, r.lhs, r.rhs, r.passed) for r in flatten(out))


# ---------------------------------------------------------------------------
# shared entry points
# ---------------------------------------------------------------------------

WORKLOADS = {
    "entropy_batch": (entropy_inputs, run_entropy, check_entropy, lambda out: out),
    "group_average": (group_inputs, run_group, check_group, group_digest),
}


def build_inputs(workload: str, seed: int, seconds: float):
    """The inputs a run of the workload needs (set-up, timed by setup_s)."""
    if workload == "cli_suite":
        from declab import cli, suites  # noqa: F401  (what the command imports)

        return suites.build_checks(suites.SuiteConfig(seed=seed, output="json"))
    return WORKLOADS[workload][0](seed, seconds)
