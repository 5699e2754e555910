#!/usr/bin/env python3
"""Run `declab verify --suite all` at seeds 0-99 and list every seed that
exits non-zero, with the names of its failing records.

    python scripts/seed_sweep.py [OUT_DIR]

The suite runs in process, from the `src` directory of the checkout that
holds this script. With OUT_DIR, each seed's JSON records are kept as
OUT_DIR/seed-<n>.json, so the output of two checkouts can be compared file by
file with `cmp`. Exits 1 if any seed exits non-zero. About 2.5 s a seed.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from declab import cli  # noqa: E402

SEEDS = range(100)


def main(argv) -> int:
    if len(argv) > 1 or (argv and argv[0].startswith("-")):
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(argv[0] if argv else tmp)
        out_dir.mkdir(parents=True, exist_ok=True)
        bad = 0
        for seed in SEEDS:
            path = out_dir / f"seed-{seed}.json"
            code = cli.main(["verify", "--suite", "all", "--seed", str(seed),
                             "--output", "json", "--out", str(path)])
            if code:
                bad += 1
                failing = [r["name"] for r in json.loads(path.read_text()) if not r["pass"]] \
                    if code == 1 else []
                print(f"seed {seed}: exit {code}: {', '.join(failing)}", flush=True)
    print(f"{bad} of {len(SEEDS)} seeds exit non-zero")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
