"""Command-line harness: runs the verification suites and prints small
reference tables (Gramian, characters, twirl coefficients, circuit study,
permutation families).

Exit codes: 0 all checks pass, 1 any check failed, 2 configuration error.
Every subcommand reports a configuration error (a --depths entry below 0
among them), or an --out that cannot be written, as one `error: ...` line on
stderr and exits 2; a flag that argparse rejects (an unknown --suite, a
non-integer --d, a --dims or --depths that is not a comma-separated list of
integers, a --seed below 0, a --trials, --samples or characters --d below 1)
gets argparse's usage text and a message naming the flag instead, also with
exit 2.
JSON and CSV output is byte-deterministic for a fixed configuration on one
machine and numpy/BLAS build (elsewhere round-off-sized numbers can differ in
the last bits); wall times appear only in the text format.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import suites, symgroup, twirl
from ._groupavg import orbit_mean
from .linalg import swap_operator, whole
from .suites import SuiteConfig, build_checks, flatten_reports
from .verify import VerificationReport

SUITES = ("all",) + tuple(dict.fromkeys(c.suite for c in build_checks(SuiteConfig())))


def _int_list(text: str) -> tuple:
    """argparse type of a comma-separated list of integers, such as 4,5."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None


def _int_at_least(low: int):
    """argparse type of one integer >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, not {value}")
        return value
    return parse


def _fmt(x: float) -> str:
    """Decimal with 12 significant digits, stable across runs."""
    if x != x:
        return "NaN"
    return f"{float(x):.12g}"


def _dims(rep: VerificationReport) -> dict:
    return rep.meta.get("dims", {})


def _cell(value, output: str) -> str:
    """One value of a `_table` row, written for `output` ("json" or "csv")."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, dict):
        if output == "csv":
            return ";".join(f"{k}={v}" for k, v in value.items())
        return "{" + ", ".join(f'"{k}": {v}' for k, v in value.items()) + "}"
    if isinstance(value, str) and output == "json":
        return f'"{value}"'
    return str(value)


def _table(rows, output: str) -> str:
    """Rows of ordered key -> value dicts as a JSON list of objects or as CSV
    with a header line: floats through `_fmt`, booleans lower case, a dict
    value (the dims) as an object or as k=v;... ."""
    if output == "csv":
        lines = [",".join(rows[0])] + [",".join(_cell(v, output) for v in row.values())
                                       for row in rows]
        return "\n".join(lines) + "\n"
    return "[\n" + ",\n".join(
        "  {" + ", ".join(f'"{k}": {_cell(v, output)}' for k, v in row.items()) + "}"
        for row in rows) + "\n]\n"


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_suite(cfg: SuiteConfig) -> int:
    """Run the configured checks and write their records; returns 0 if every
    record passes and 1 otherwise. Raises ValueError on a configuration error:
    an unknown suite, a check that rejects its inputs, or no record at all."""
    reports = []
    text_lines = []
    for check in build_checks(cfg):
        t0 = time.perf_counter()
        flat = flatten_reports(check.run())
        timing = f" ({(time.perf_counter() - t0) * 1000:.1f} ms)"
        for rep in flat:
            status = "PASS" if rep.passed else "FAIL"
            text_lines.append(
                f"[{status}] {rep.name:42s} {rep.kind:11s} "
                f"lhs={_fmt(rep.lhs):>18s} rhs={_fmt(rep.rhs):>18s}{timing}")
            timing = ""
        reports += flat
    if cfg.dims:
        taken = {_dims(rep).get("d_A") for rep in reports}
        missed = [d for d in dict.fromkeys(cfg.dims) if d not in taken]
        if missed:
            print(f"note: requested dimension(s) {', '.join(map(str, missed))} "
                  f"ignored by every check of suite {cfg.suite}", file=sys.stderr)
    if not reports:
        raise ValueError("no check supports the requested dimensions")
    n_pass = sum(rep.passed for rep in reports)
    if cfg.output in ("json", "csv"):
        _emit(_table([{"name": rep.name, "kind": rep.kind, "lhs": rep.lhs, "rhs": rep.rhs,
                       "gap": rep.gap, "pass": rep.passed, "dims": _dims(rep),
                       "seed": cfg.seed} for rep in reports], cfg.output), cfg.out_path)
    else:
        _emit("\n".join(text_lines) + f"\n{n_pass}/{len(reports)} checks passed\n",
              cfg.out_path)
    return 0 if n_pass == len(reports) else 1


def cmd_verify(args) -> int:
    return run_suite(SuiteConfig(suite=args.suite, dims=args.dims, seed=args.seed,
                                 output=args.output, out_path=args.out))


def cmd_gram(args) -> int:
    twirl.gram_inverse_closed_form(args.d)      # raises for d < 4, where it is singular
    gram = twirl.gram_closed_form(args.d)
    width = len(str(int(gram.max())))
    for row in gram:
        print(" ".join(f"{int(v):>{width}d}" for v in row))
    return 0


def cmd_characters(args) -> int:
    d = args.d
    rows = []
    for lam in symgroup.partitions(d):
        counts = symgroup.partition_to_counts(lam)
        closed = symgroup.char_closed_forms(d, counts)
        mn = {p: symgroup.mn_character(p, counts) for p in closed}
        rows.append((lam, closed, closed == mn))
    print("class".ljust(22) + "".join(str(p).rjust(14) for p in rows[0][1]) + "   MN agrees")
    for lam, closed, agrees in rows:
        print(str(lam).ljust(22)
              + "".join(str(v).rjust(14) for v in closed.values())
              + ("   yes" if agrees else "   NO"))
    return 0 if all(agrees for *_, agrees in rows) else 1


def cmd_twirl(args) -> int:
    d = whole(args.d, "--d", 2, symgroup.MAX_ENUM_D)
    rng = np.random.default_rng(args.seed)
    h = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    h = (h + h.conj().T) / 2
    # everything is computed before the first line is printed
    res = twirl.haar_twirl2_exact(h, d)
    mc = twirl.haar_twirl2_mc(h, d, args.samples, seed=args.seed)
    if d >= 4:
        f = swap_operator(d)
        sym = (h + f @ h @ f) / 2
        exact = twirl.perm_twirl2_exact(sym, d)
        mean = orbit_mean(sym.reshape((d,) * 4), d, 4).reshape(d * d, d * d)
    print(f"random Hermitian M on two copies of dimension {d} (seed {args.seed})")
    alpha, beta = res.coeffs.real
    print(f"Haar twirl: alpha = {_fmt(alpha)}, beta = {_fmt(beta)}")
    dev = float(np.abs(mc - res.reconstructed).max())
    print(f"Monte Carlo twirl ({args.samples} samples): max deviation {_fmt(dev)}")
    if d >= 4:
        resid = float(np.abs(exact.reconstructed - mean).max())
        print("permutation twirl coefficients (swap-symmetrized M):")
        print("  " + " ".join(_fmt(c.real) for c in exact.coeffs))
        print(f"  vs orbit mean: max deviation {_fmt(resid)}")
    return 0


def cmd_circuit_study(args) -> int:
    pairs = suites.run_circuit_study(args.qubits, args.depths, args.trials, seed=[args.seed])
    if args.output in ("json", "csv"):
        _emit(_table([{"depth": t, "epsilon_bound": e} for t, e in pairs], args.output),
              args.out)
    else:
        _emit("".join(f"depth {t:4d}: epsilon bound {_fmt(e)}\n" for t, e in pairs), args.out)
    return 0


def cmd_family(args) -> int:
    fam = symgroup.affine_family(args.n)
    d = 2 ** args.n
    print(f"affine family over GF(2^{args.n}): {len(fam)} permutations of {d} points")
    print(f"pairwise dependence: {_fmt(symgroup.pairwise_dependence(fam, d))}")
    if args.n <= 3:
        for p in fam.elems:
            print("  " + " ".join(str(x) for x in p))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="declab",
                                     description="desk-scale decoupling verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument(
        "--dims", type=_int_list, default=None,
        help="comma-separated integers, e.g. 4,5, clipped to each check's range; reaches "
             "decoupling_lemma, decoupling_theorem, improved_decoupling, pair_state_twirl, "
             "doubled_classical_twirl, cq_lemma")
    p_verify.add_argument("--seed", type=_int_at_least(0), default=0)
    p_verify.add_argument("--output", choices=("text", "json", "csv"), default="text")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(fn=cmd_verify)

    p_gram = sub.add_parser("gram", help="print the closed-form Gramian")
    p_gram.add_argument("--d", type=int, required=True)
    p_gram.set_defaults(fn=cmd_gram)

    p_chars = sub.add_parser("characters", help="closed-form character table")
    p_chars.add_argument("--d", type=_int_at_least(1), required=True)
    p_chars.set_defaults(fn=cmd_characters)

    p_twirl = sub.add_parser("twirl", help="twirl a random Hermitian operator")
    p_twirl.add_argument("--d", type=int, default=3)
    p_twirl.add_argument("--seed", type=_int_at_least(0), default=0)
    p_twirl.add_argument("--samples", type=_int_at_least(1), default=2000)
    p_twirl.set_defaults(fn=cmd_twirl)

    p_circ = sub.add_parser("circuit-study", help="epsilon bound vs circuit depth")
    p_circ.add_argument("--qubits", type=int, default=2)
    p_circ.add_argument("--depths", type=_int_list, default="2,30")
    p_circ.add_argument("--trials", type=_int_at_least(1), default=200)
    p_circ.add_argument("--seed", type=_int_at_least(0), default=0)
    p_circ.add_argument("--output", choices=("text", "json", "csv"), default="text")
    p_circ.add_argument("--out", default=None)
    p_circ.set_defaults(fn=cmd_circuit_study)

    p_fam = sub.add_parser("family", help="print the affine permutation family")
    p_fam.add_argument("--n", type=int, default=2)
    p_fam.set_defaults(fn=cmd_family)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
