#!/usr/bin/env python3
"""Run `declab verify --suite all` at seeds 0-99 and list every seed that
exits non-zero, with the names of its failing records.

    python scripts/seed_sweep.py [OUT_DIR]
    python scripts/seed_sweep.py --pin
    python scripts/seed_sweep.py --diff OLD_DIR NEW_DIR

The suite runs in process, from the `src` directory of the checkout that
holds this script. With OUT_DIR, each seed's JSON records are kept as
OUT_DIR/seed-<n>.json, so the output of two checkouts can be compared file by
file with `cmp`. Exits 1 if any seed exits non-zero. About 2.5 s a seed.

With --pin, only the seeds in PINNED run, and their JSON is written to
tests/data/suite-seed-<n>.json of the same checkout: the records that
tests/test_pinned.py compares a fresh run against.

With --diff, nothing runs: the seed-<n>.json files of two OUT_DIRs are
compared record by record, in file order. For each record name and field
that differs, it prints how many seeds differ and the largest absolute
difference (for numbers; "-" otherwise). A seed whose two files list
different records, or whose file is in one directory only, is named apart.
Exits 1 if anything differs.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from declab import cli  # noqa: E402

SEEDS = range(100)
PINNED = (0, 1)


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def diff(old_dir: Path, new_dir: Path) -> int:
    """Print, per record name and field, the seeds that differ between the
    JSON records of two sweeps and the largest absolute difference."""
    old_files = {p.name for p in old_dir.glob("seed-*.json")}
    new_files = {p.name for p in new_dir.glob("seed-*.json")}
    seeds, worst = {}, {}
    apart = [f"{name}: in {old_dir if name in old_files else new_dir} only"
             for name in sorted(old_files ^ new_files)]
    for name in sorted(old_files & new_files):
        old = json.loads((old_dir / name).read_text())
        new = json.loads((new_dir / name).read_text())
        if [r["name"] for r in old] != [r["name"] for r in new]:
            apart.append(f"{name}: the two files list different records")
            continue
        for a, b in zip(old, new):
            for field in sorted(a.keys() | b.keys()):
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
    if seeds:
        print(f"{'record':40} {'field':8} {'seeds':>5} {'max_abs_diff':>12}")
    for (record, field), differ in sorted(seeds.items()):
        big = f"{worst[record, field]:.3e}" if (record, field) in worst else "-"
        print(f"{record:40} {field:8} {len(differ):5d} {big:>12}")
    return 1 if seeds or apart else 0


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
        out_dir.mkdir(parents=True, exist_ok=True)
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
