#!/usr/bin/env python3
"""Run `declab verify --suite all` at seeds 0-99 and list every seed that
exits non-zero, with the names of its failing records.

    python scripts/seed_sweep.py [OUT_DIR]
    python scripts/seed_sweep.py --pin
    python scripts/seed_sweep.py --diff OLD_DIR NEW_DIR

The suite runs in process, from the `src` directory of the checkout that
holds this script. With OUT_DIR, each seed's JSON records are kept as
OUT_DIR/seed-<n>.json, so the output of two checkouts can be compared file by
file with `cmp`. Exits 1 if any seed exits non-zero, and 2 if OUT_DIR cannot
be made (an existing file, say). About 0.9 s a seed with one BLAS thread
(OPENBLAS_NUM_THREADS=1) on a 2-core Intel Xeon.

With --pin, only the seeds in PINNED run, and their JSON is written to
tests/data/suite-seed-<n>.json of the same checkout: the records that
tests/test_pinned.py compares a fresh run against.

With --diff, nothing runs: the seed-<n>.json files of two OUT_DIRs are
compared record by record. A record is matched by its name and its
occurrence among the records of that name, so seeds whose record lists
differ are compared too. For each record name found in one directory only
at some seeds, it prints that directory and the number of such seeds; a
seed file in one directory only is named apart. Then, for each record name
and field that differs between matched records, it prints how many seeds
differ and the largest absolute difference (for numbers; "-" otherwise).
Exits 1 if anything differs, and 2 if either directory holds no seed-<n>.json.
"""

import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from declab import cli  # noqa: E402

SEEDS = range(100)
PINNED = (0, 1)


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _keyed(path: Path) -> dict:
    """The JSON records of one seed file, keyed by (name, occurrence): the
    k-th record of a name has occurrence k."""
    count, keyed = Counter(), {}
    for r in json.loads(path.read_text()):
        keyed[r["name"], count[r["name"]]] = r
        count[r["name"]] += 1
    return keyed


def diff(old_dir: Path, new_dir: Path) -> int:
    """Print, per record name, the seeds that hold it in one sweep only, and
    per record name and field, the seeds that differ between the matched
    JSON records of two sweeps and the largest absolute difference."""
    old_files = {p.name for p in old_dir.glob("seed-*.json")}
    new_files = {p.name for p in new_dir.glob("seed-*.json")}
    if not old_files or not new_files:
        print(f"error: no seed-*.json in {new_dir if old_files else old_dir}", file=sys.stderr)
        return 2
    seeds, worst, one_side = {}, {}, {}
    apart = [f"{name}: in {old_dir if name in old_files else new_dir} only"
             for name in sorted(old_files ^ new_files)]
    for name in sorted(old_files & new_files):
        old, new = _keyed(old_dir / name), _keyed(new_dir / name)
        for record, k in old.keys() ^ new.keys():
            side = old_dir if (record, k) in old else new_dir
            one_side.setdefault((record, side), set()).add(name)
        for match in old.keys() & new.keys():
            a, b = old[match], new[match]
            for field in a.keys() | b.keys():
                x, y = a.get(field), b.get(field)
                if x == y:
                    continue
                key = (a["name"], field)
                seeds.setdefault(key, set()).add(name)
                if _number(x) and _number(y):
                    worst[key] = max(worst.get(key, 0.0), abs(x - y))
    print(f"{len(old_files & new_files)} seeds compared")
    for line in apart:
        print(line)
    for (record, side), at in sorted(one_side.items()):
        print(f"{record}: in {side} only, at {len(at)} seeds")
    if seeds:
        print(f"{'record':40} {'field':8} {'seeds':>5} {'max_abs_diff':>12}")
    for (record, field), differ in sorted(seeds.items()):
        big = f"{worst[record, field]:.3e}" if (record, field) in worst else "-"
        print(f"{record:40} {field:8} {len(differ):5d} {big:>12}")
    return 1 if seeds or apart or one_side else 0


def main(argv) -> int:
    if argv[:1] == ["--diff"]:
        if len(argv) != 3:
            print(__doc__, file=sys.stderr)
            return 2
        return diff(Path(argv[1]), Path(argv[2]))
    pin = argv == ["--pin"]
    if not pin and (len(argv) > 1 or (argv and argv[0].startswith("-"))):
        print(__doc__, file=sys.stderr)
        return 2
    seeds = PINNED if pin else SEEDS
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = ROOT / "tests" / "data" if pin else Path(argv[0] if argv else tmp)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:          # such as an OUT_DIR that is a file
            print(f"error: {exc}", file=sys.stderr)
            return 2
        bad = 0
        for seed in seeds:
            path = out_dir / (f"suite-seed-{seed}.json" if pin else f"seed-{seed}.json")
            code = cli.main(["verify", "--suite", "all", "--seed", str(seed),
                             "--output", "json", "--out", str(path)])
            if code:
                bad += 1
                failing = [r["name"] for r in json.loads(path.read_text()) if not r["pass"]] \
                    if code == 1 else []
                print(f"seed {seed}: exit {code}: {', '.join(failing)}", flush=True)
    print(f"{bad} of {len(seeds)} seeds exit non-zero")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
