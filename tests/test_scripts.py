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
