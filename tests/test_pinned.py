"""`declab verify --suite all --output json` against the records pinned in
tests/data, which `python scripts/seed_sweep.py --pin` regenerates.

The record list and order, and each record's name, kind, pass and dims, must
match exactly; lhs and rhs within verify.EQ_TOL times max(1, |x|), so a
change of round-off that keeps every verdict passes and any other change of
output fails.
"""

import json
import math
from pathlib import Path

import pytest

from declab.cli import main
from declab.verify import EQ_TOL

DATA = Path(__file__).parent / "data"


def _close(got, want) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= EQ_TOL * max(1.0, abs(want))


@pytest.mark.parametrize("seed", [0, 1])
def test_suite_matches_pinned_records(seed, tmp_path):
    pinned = json.loads((DATA / f"suite-seed-{seed}.json").read_text())
    out = tmp_path / "out.json"
    assert main(["verify", "--suite", "all", "--seed", str(seed), "--output", "json",
                 "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    assert [r["name"] for r in got] == [r["name"] for r in pinned]
    for g, p in zip(got, pinned):
        for key in ("name", "kind", "pass", "dims", "seed"):
            assert g[key] == p[key], (p["name"], key)
        for key in ("lhs", "rhs"):
            assert _close(g[key], p[key]), (p["name"], key, g[key], p[key])
