"""`declab verify --suite all --output json`, run in process, against the
records pinned in tests/data (see conftest.py)."""

import json
from pathlib import Path

import pytest

from declab.cli import main


@pytest.mark.parametrize("seed", [0, 1])
def test_suite_matches_pinned_records(seed, tmp_path, match_pinned):
    out = tmp_path / "out.json"
    assert main(["verify", "--suite", "all", "--seed", str(seed), "--output", "json",
                 "--out", str(out)]) == 0
    match_pinned(json.loads(out.read_text()), seed)


# The upper-bound records that cannot fail: each is a mean 1-norm of the
# difference of two states of trace at most 1, so its lhs is at most 2, and
# its rhs is at least 2. They stay as sanity checks of the verifier's
# arithmetic; a new record of this kind fails here until it is named.
# circuit_trend compares two design epsilons and is no 1-norm bound.
VACUOUS = ([("design_decoupling", {"d_A": 4, "d_R": 2, "d_E": 2})]
           + [("family_hash[singleton]", {"d_A1": 2, "d_A2": 2, "d_R": 2})] * 10)


@pytest.mark.parametrize("seed", [0, 1])
def test_vacuous_bounds_are_the_named_ones(seed):
    records = json.loads((Path(__file__).parent / "data" / f"suite-seed-{seed}.json").read_text())
    assert [(r["name"], r["dims"]) for r in records if r["kind"] == "upper_bound"
            and r["rhs"] >= 2 and r["name"] != "circuit_trend"] == VACUOUS
