"""The comparison of a `declab verify --suite all --output json` run with the
records pinned in tests/data, which `python scripts/seed_sweep.py --pin`
regenerates. test_pinned.py runs it in process at seeds 0 and 1, and
criterion 13 of test_acceptance.py on its own command-line run at seed 0.

The record list and order, and each record's name, kind, pass and dims, must
match exactly; lhs and rhs within verify.EQ_TOL times max(1, |x|), so a
change of round-off that keeps every verdict passes and any other change of
output fails.
"""

import json
import math
from pathlib import Path

import pytest

from declab.verify import EQ_TOL

DATA = Path(__file__).parent / "data"


def _close(got, want) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= EQ_TOL * max(1.0, abs(want))


def _match_pinned(got: list, seed: int) -> None:
    pinned = json.loads((DATA / f"suite-seed-{seed}.json").read_text())
    assert [r["name"] for r in got] == [r["name"] for r in pinned]
    for g, p in zip(got, pinned):
        for key in ("name", "kind", "pass", "dims", "seed"):
            assert g[key] == p[key], (p["name"], key)
        for key in ("lhs", "rhs"):
            assert _close(g[key], p[key]), (p["name"], key, g[key], p[key])


@pytest.fixture
def match_pinned():
    """match_pinned(records, seed) asserts that the JSON records of a suite
    run at `seed` match tests/data/suite-seed-<seed>.json."""
    return _match_pinned
