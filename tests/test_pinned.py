"""`declab verify --suite all --output json`, run in process, against the
records pinned in tests/data (see conftest.py)."""

import json

import pytest

from declab.cli import main


@pytest.mark.parametrize("seed", [0, 1])
def test_suite_matches_pinned_records(seed, tmp_path, match_pinned):
    out = tmp_path / "out.json"
    assert main(["verify", "--suite", "all", "--seed", str(seed), "--output", "json",
                 "--out", str(out)]) == 0
    match_pinned(json.loads(out.read_text()), seed)
