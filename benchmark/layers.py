"""The declab functions the traced run times, and the per-layer metrics
computed from its spans and counters.

Span names follow `<module>.<function>`, except where several functions make
up one layer metric: the eight permutation and family verifiers share
`verify.perm_avg`, the two Haar-sampled verifiers `verify.haar_avg`, and
`h2_cond` splits into `entropy.h2_cond_opt` (optimized sigma) and
`entropy.h2_cond_fixed`. Each registered suite check gets `suites.<name>`.
"""

from __future__ import annotations

import dataclasses
import inspect
import statistics
from math import factorial

import numpy as np

from tracer import Tracer, span_stats

# the output checks, shared with the untraced workloads
HMIN_LE_H2_TOL = 1e-6
FIXED_LE_OPT_TOL = 1e-9
SLACK_TOL = 1e-8
GAIN_TOL = 1e-9

PERM_VERIFIERS = (
    "verify_cq_decoupling_lemma", "verify_cq_hash", "verify_cq_tpcp", "verify_cq_general",
    "verify_family_hash", "verify_distance_from_classicality",
    "verify_perm_decoupling_lemma", "verify_quantum_hash",
)
HAAR_VERIFIERS = ("verify_decoupling_theorem", "verify_improved_decoupling")
PLAIN = {
    "twirl": ("circuit_ensemble", "design_epsilon_bound", "perm_twirl2_brute",
              "perm_twirl2_exact", "commutant_basis", "commutant_dim_brute"),
    "symgroup": ("perm_operator", "all_perms", "mn_character", "pairwise_dependence",
                 "classical_diamond_distance"),
    "linalg": ("tensor", "partial_trace", "schatten_norm", "permute_systems"),
    "states": ("apply_channel_mat", "random_density", "random_channel"),
    "cli": ("run_suite",),
}


def flatten(report) -> list:
    """A verifier report and every report nested in its meta."""
    from declab.verify import VerificationReport

    return [report] + [v for v in report.meta.values() if isinstance(v, VerificationReport)]


def tail(values):
    """(value, percentile) of the highest percentile with at least ten values
    above it; the maximum (percentile 100) when there are fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _state_key(state, dims):
    mat = getattr(state, "mat", state)
    return np.ascontiguousarray(mat).tobytes(), tuple(getattr(state, "dims", dims))


def _h2_span(args, kwargs) -> str:
    sigma = kwargs.get("sigma", args[2] if len(args) > 2 else None)
    optimize = kwargs.get("optimize", args[3] if len(args) > 3 else False)
    return "entropy.h2_cond_opt" if optimize and sigma is None else "entropy.h2_cond_fixed"


def _group_size(a: dict) -> int:
    if "fam" in a:
        return len(a["fam"])
    return factorial(a["rho"].dims[0] if "rho" in a else a["ch"].d_in)


def make_tracer() -> Tracer:
    """A tracer with every layer function of the benchmark registered."""
    tracer = Tracer()
    hmin_by_state: dict = {}

    def after_hmin(tr, fn, args, kwargs, result):
        a = _arguments(fn, args, kwargs)
        hmin_by_state[_state_key(a["state"], a["dims"])] = result.value
        if result.meta["primal_slack"] < -SLACK_TOL:
            tr.count("entropy.h_min_cond.slack_fail")
        return result

    def after_h2(tr, fn, args, kwargs, result):
        if _h2_span(args, kwargs) != "entropy.h2_cond_opt":
            return result
        a = _arguments(fn, args, kwargs)
        fixed = fn(a["state"], a["dims"]).value
        tr.count("entropy.h2_cond_opt.compared")
        if result.value > fixed + GAIN_TOL:
            tr.count("entropy.h2_cond_opt.gain")
        hmin = hmin_by_state.get(_state_key(a["state"], a["dims"]))
        if fixed > result.value + FIXED_LE_OPT_TOL or (
                hmin is not None and hmin > result.value + HMIN_LE_H2_TOL):
            tr.count("entropy.order_fail")
        return result

    def after_verifier(counter, size):
        def after(tr, fn, args, kwargs, result):
            tr.count(counter, size(_arguments(fn, args, kwargs)))
            tr.count("verify.report_fail", sum(not r.passed for r in flatten(result)))
            return result
        return after

    def after_build_checks(tr, fn, args, kwargs, checks):
        return [dataclasses.replace(c, run=tr.wrap(c.run, f"suites.{c.name}")) for c in checks]

    tracer.add("entropy", "h_min_cond", "entropy.h_min_cond", after_hmin)
    tracer.add("entropy", "h2_cond", _h2_span, after_h2)
    for name in PERM_VERIFIERS:
        tracer.add("verify", name, "verify.perm_avg",
                   after_verifier("verify.perm_avg.elements", _group_size))
    for name in HAAR_VERIFIERS:
        tracer.add("verify", name, "verify.haar_avg",
                   after_verifier("verify.haar_avg.samples", lambda a: a["n_samples"]))
    tracer.add("verify", "verify_design_decoupling", "verify.ensemble_avg",
               after_verifier("verify.ensemble_avg.members", lambda a: len(a["ens"])))
    for module, names in PLAIN.items():
        for name in names:
            tracer.add(module, name, f"{module}.{name}")
    tracer.add("suites", "build_checks", "suites.build_checks", after_build_checks)
    return tracer


def layer_metrics(dump: dict) -> dict:
    """Every per-layer metric the spans and counters of one traced run give.

    A layer the run never entered has no entry; the caller reports it as 0.
    """
    out = dict(dump["counters"])
    totals: dict[str, float] = {}
    for name, st in span_stats(dump).items():
        out[f"{name}.calls"] = st["calls"]
        out[f"{name}.self_s"] = st["self_s"]
        out[f"{name}.s"] = sum(st["durations"])
        out[f"{name}.p50_ms"] = 1000 * statistics.median(st["durations"])
        out[f"{name}.tail_ms"] = 1000 * tail(st["durations"])[0]
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + st["self_s"]
    for layer, self_s in totals.items():
        out[f"{layer}.self_s"] = self_s
    compared = out.get("entropy.h2_cond_opt.compared", 0)
    out["entropy.h2_cond_opt.gain_ratio"] = (
        out.get("entropy.h2_cond_opt.gain", 0) / compared if compared else 0.0)
    out["trace.spans"] = len(dump["spans"])
    return out
