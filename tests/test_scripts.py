import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("extra", [[], ["--quantum"]])
def test_hash_bound_sweep_table(extra):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / "hash_bound_sweep.py"),
                        "--steps", "3", *extra], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    comment, header, *rows = r.stdout.splitlines()
    assert comment.startswith("#") and header.split()[-1] == "slack"
    assert len(rows) == 3
    assert all(float(row.split()[-1]) >= 0 for row in rows)


def _records(lhs, passed=True):
    return [{"name": "a", "lhs": 1.0, "gap": 0.0, "pass": True, "dims": {"d": 2}},
            {"name": "b", "lhs": lhs, "gap": lhs - 0.5, "pass": passed, "dims": {"d": 3}},
            {"name": "b", "lhs": 0.5, "gap": 0.0, "pass": True, "dims": {"d": 4}}]


def test_seed_sweep_diff_counts_seeds_and_largest_difference(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    for seed, (lhs_old, lhs_new, passed) in enumerate([(0.5, 0.5, True), (0.5, 0.75, True),
                                                       (0.5, 0.625, False)]):
        (old / f"seed-{seed}.json").write_text(json.dumps(_records(lhs_old)))
        (new / f"seed-{seed}.json").write_text(json.dumps(_records(lhs_new, passed)))
    script = str(ROOT / "scripts" / "seed_sweep.py")
    r = subprocess.run([sys.executable, script, "--diff", str(old), str(new)],
                       capture_output=True, text=True)
    assert r.returncode == 1, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "3 seeds compared"
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[2:]}
    assert rows == {("b", "gap"): ["2", "2.500e-01"], ("b", "lhs"): ["2", "2.500e-01"],
                    ("b", "pass"): ["1", "-"]}
    # the same records on both sides: no rows and exit 0
    r = subprocess.run([sys.executable, script, "--diff", str(old), str(old)],
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (0, "3 seeds compared\n")
