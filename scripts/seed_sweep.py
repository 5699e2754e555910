#!/usr/bin/env python3
"""Run `declab verify --suite all` at seeds 0-99 and list every seed that
exits non-zero, with the names of its failing records.

    python scripts/seed_sweep.py [OUT_DIR]
    python scripts/seed_sweep.py --pin

The suite runs in process, from the `src` directory of the checkout that
holds this script. With OUT_DIR, each seed's JSON records are kept as
OUT_DIR/seed-<n>.json, so the output of two checkouts can be compared file by
file with `cmp`. Exits 1 if any seed exits non-zero. About 2.5 s a seed.

With --pin, only the seeds in PINNED run, and their JSON is written to
tests/data/suite-seed-<n>.json of the same checkout: the records that
tests/test_pinned.py compares a fresh run against.
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


def main(argv) -> int:
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
