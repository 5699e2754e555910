"""Command-line harness: runs the verification suites and prints small
reference tables (Gramian, characters, twirl coefficients, circuit study,
permutation families).

Exit codes: 0 all checks pass, 1 any check failed, 2 configuration error.
JSON and CSV output is byte-deterministic for a fixed configuration; wall
times appear only in the text format.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import suites, symgroup, twirl
from .suites import SuiteConfig, build_checks, flatten_reports
from .verify import VerificationReport

SUITES = ("all", "ch2", "ch3", "ch5", "ch6", "ch7", "groups", "entropy")


def _fmt(x: float) -> str:
    """Decimal with 12 significant digits, stable across runs."""
    if x != x:
        return "NaN"
    return f"{float(x):.12g}"


def _record(rep: VerificationReport, seed: int) -> dict:
    dims = rep.meta.get("dims", {})
    return {
        "name": rep.name,
        "kind": rep.kind,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "gap": rep.rhs - rep.lhs,
        "pass": rep.passed,
        "dims": dims,
        "seed": seed,
    }


def _to_json(records) -> str:
    lines = []
    for r in records:
        dims = ", ".join(f'"{k}": {v}' for k, v in r["dims"].items())
        lines.append(
            "  {"
            + f'"name": "{r["name"]}", "kind": "{r["kind"]}", '
            + f'"lhs": {_fmt(r["lhs"])}, "rhs": {_fmt(r["rhs"])}, '
            + f'"gap": {_fmt(r["gap"])}, "pass": {str(r["pass"]).lower()}, '
            + "\"dims\": {" + dims + "}, "
            + f'"seed": {r["seed"]}'
            + "}"
        )
    return "[\n" + ",\n".join(lines) + "\n]\n"


def _to_csv(records) -> str:
    rows = ["name,kind,lhs,rhs,gap,pass,dims,seed"]
    for r in records:
        dims = ";".join(f"{k}={v}" for k, v in r["dims"].items())
        rows.append(f'{r["name"]},{r["kind"]},{_fmt(r["lhs"])},{_fmt(r["rhs"])},'
                    f'{_fmt(r["gap"])},{str(r["pass"]).lower()},{dims},{r["seed"]}')
    return "\n".join(rows) + "\n"


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_suite(cfg: SuiteConfig) -> int:
    """Run the configured checks; returns the exit code."""
    try:
        checks = build_checks(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = []
    text_lines = []
    all_pass = True
    for check in checks:
        t0 = time.perf_counter()
        try:
            reports = flatten_reports(check.run())
        except ValueError as exc:
            print(f"error in {check.name}: {exc}", file=sys.stderr)
            return 2
        ms = (time.perf_counter() - t0) * 1000
        for rep in reports:
            all_pass &= rep.passed
            records.append(_record(rep, cfg.seed))
            status = "PASS" if rep.passed else "FAIL"
            text_lines.append(
                f"[{status}] {rep.name:42s} {rep.kind:11s} "
                f"lhs={_fmt(rep.lhs):>18s} rhs={_fmt(rep.rhs):>18s} "
                f"({ms / len(reports):.1f} ms)")
    if not records:
        print("error: no check supports the requested dimensions", file=sys.stderr)
        return 2
    if cfg.output == "json":
        _emit(_to_json(records), cfg.out_path)
    elif cfg.output == "csv":
        _emit(_to_csv(records), cfg.out_path)
    else:
        summary = f"{sum(r['pass'] for r in records)}/{len(records)} checks passed"
        _emit("\n".join(text_lines) + f"\n{summary}\n", cfg.out_path)
    return 0 if all_pass else 1


def cmd_verify(args) -> int:
    try:
        dims = tuple(int(x) for x in args.dims.split(",")) if args.dims else None
        cfg = SuiteConfig(
            suite=args.suite, dims=dims, seed=args.seed, samples=args.samples,
            tolerance=args.tol, optimize_sigma=args.optimize_sigma,
            output=args.output, out_path=args.out,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_suite(cfg)


def cmd_gram(args) -> int:
    try:
        basis = twirl.commutant_basis(args.d)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    width = len(str(int(basis.gram.max())))
    for row in basis.gram:
        print(" ".join(f"{int(v):>{width}d}" for v in row))
    return 0


def cmd_characters(args) -> int:
    d = args.d
    if d < 4:
        print("error: closed-form characters need d >= 4", file=sys.stderr)
        return 2
    parts = [(d,), (d - 1, 1), (d - 2, 1, 1), (d - 2, 2)]
    header = ("class".ljust(22)
              + "".join(str(p).rjust(14) for p in parts) + "   MN agrees")
    print(header)
    ok = True
    for lam in symgroup.partitions(d):
        counts = symgroup.partition_to_counts(lam)
        closed = symgroup.char_closed_forms(d, counts)
        mn = tuple(symgroup.mn_character(p, counts) for p in parts)
        agrees = closed == mn
        ok &= agrees
        print(str(lam).ljust(22)
              + "".join(str(v).rjust(14) for v in closed)
              + ("   yes" if agrees else "   NO"))
    return 0 if ok else 1


def cmd_twirl(args) -> int:
    d = args.d
    rng = np.random.default_rng(args.seed)
    h = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    h = (h + h.conj().T) / 2
    res = twirl.haar_twirl2_exact(h, d)
    print(f"random Hermitian M on two copies of dimension {d} (seed {args.seed})")
    print(f"Haar twirl: alpha = {_fmt(res.alpha.real)}, beta = {_fmt(res.beta.real)}")
    mc = twirl.haar_twirl2_mc(h, d, args.samples, seed=args.seed)
    dev = float(np.abs(mc - res.reconstructed).max())
    print(f"Monte Carlo twirl ({args.samples} samples): max deviation {_fmt(dev)}")
    if d >= 4:
        from .linalg import swap_operator

        f = swap_operator(d)
        sym = (h + f @ h @ f) / 2
        exact = twirl.perm_twirl2_exact(sym, d)
        brute = twirl.perm_twirl2_brute(sym, d)
        resid = float(np.abs(exact.reconstructed - brute).max())
        print("permutation twirl coefficients (swap-symmetrized M):")
        print("  " + " ".join(_fmt(c.real) for c in exact.coeffs))
        print(f"  vs brute force: max deviation {_fmt(resid)}")
    return 0


def cmd_circuit_study(args) -> int:
    try:
        depths = [int(x) for x in args.depths.split(",")]
        pairs = suites.run_circuit_study(args.qubits, depths, args.trials, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output == "json":
        body = ",\n".join(f'  {{"depth": {t}, "epsilon_bound": {_fmt(e)}}}' for t, e in pairs)
        _emit("[\n" + body + "\n]\n", args.out)
    elif args.output == "csv":
        _emit("depth,epsilon_bound\n"
              + "\n".join(f"{t},{_fmt(e)}" for t, e in pairs) + "\n", args.out)
    else:
        for t, e in pairs:
            print(f"depth {t:4d}: epsilon bound {_fmt(e)}")
    return 0


def cmd_family(args) -> int:
    try:
        fam = symgroup.affine_family(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    d = 2 ** args.n
    print(f"affine family over GF(2^{args.n}): {len(fam)} permutations of {d} points")
    print(f"pairwise dependence: {_fmt(symgroup.pairwise_dependence(fam, d))}")
    if d <= symgroup.MAX_DIAMOND_D:
        eps = symgroup.classical_diamond_distance(fam, d)
        print(f"classical diamond distance from the full group: {_fmt(eps)}")
    else:
        print("classical diamond distance: skipped (exhaustive reference needs d <= 7)")
    if args.n <= 3:
        for p in fam.perms:
            print("  " + " ".join(str(x) for x in p))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="declab",
                                     description="desk-scale decoupling verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--dims", default=None, help="comma separated, e.g. 4,5")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=200)
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.add_argument("--optimize-sigma", action="store_true")
    p_verify.add_argument("--output", choices=("text", "json", "csv"), default="text")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(fn=cmd_verify)

    p_gram = sub.add_parser("gram", help="print the closed-form Gramian")
    p_gram.add_argument("--d", type=int, required=True)
    p_gram.set_defaults(fn=cmd_gram)

    p_chars = sub.add_parser("characters", help="closed-form character table")
    p_chars.add_argument("--d", type=int, required=True)
    p_chars.set_defaults(fn=cmd_characters)

    p_twirl = sub.add_parser("twirl", help="twirl a random Hermitian operator")
    p_twirl.add_argument("--d", type=int, default=3)
    p_twirl.add_argument("--seed", type=int, default=0)
    p_twirl.add_argument("--samples", type=int, default=2000)
    p_twirl.set_defaults(fn=cmd_twirl)

    p_circ = sub.add_parser("circuit-study", help="epsilon bound vs circuit depth")
    p_circ.add_argument("--qubits", type=int, default=2)
    p_circ.add_argument("--depths", default="2,30")
    p_circ.add_argument("--trials", type=int, default=200)
    p_circ.add_argument("--seed", type=int, default=0)
    p_circ.add_argument("--output", choices=("text", "json", "csv"), default="text")
    p_circ.add_argument("--out", default=None)
    p_circ.set_defaults(fn=cmd_circuit_study)

    p_fam = sub.add_parser("family", help="print the affine permutation family")
    p_fam.add_argument("--n", type=int, default=2)
    p_fam.set_defaults(fn=cmd_family)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
