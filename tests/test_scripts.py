import importlib.util
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


def _script(name: str):
    """scripts/<name>.py loaded as a module, so its main(argv) runs in process."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hash_bound_sweep_refuses_one_step(capsys):
    # and each dimension that is not an integer >= 1, the one-point split, a
    # negative seed, a split below the quantum bound's d_A >= 4, and a split
    # whose coset (quantum) or block-partition (CQ) count is over the 8! cap:
    # every split that the verifier refuses, before a line is printed
    main = _script("hash_bound_sweep").main
    for args, named in [(["--steps", "1"], "argument --steps"),
                        (["--d-a1", "0"], "argument --d-a1"),
                        (["--d-a2", "two"], "argument --d-a2"),
                        (["--d-r", "0"], "argument --d-r"),
                        (["--d-a1", "1", "--d-a2", "1"], "arguments --d-a1, --d-a2"),
                        (["--seed", "-1"], "argument --seed"),
                        (["--quantum", "--d-a1", "1", "--d-a2", "2"], "arguments --d-a1, --d-a2"),
                        (["--quantum", "--d-a1", "3", "--d-a2", "1"], "arguments --d-a1, --d-a2"),
                        (["--quantum", "--d-a1", "6", "--d-a2", "2", "--steps", "2"],
                         "arguments --d-a1, --d-a2"),
                        (["--d-a1", "4", "--d-a2", "4", "--steps", "2"],
                         "arguments --d-a1, --d-a2")]:
        with pytest.raises(SystemExit) as exc:
            main(args)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "", args
        assert named in err, args


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
        records = _records(lhs_new, passed)
        if seed == 2:
            # the new sweep drops record a at one seed, so both b records move
            # up one place; each is still compared with the old b it repeats
            del records[0]
        (new / f"seed-{seed}.json").write_text(json.dumps(records))
    script = str(ROOT / "scripts" / "seed_sweep.py")
    r = subprocess.run([sys.executable, script, "--diff", str(old), str(new)],
                       capture_output=True, text=True)
    assert r.returncode == 1, r.stderr
    lines = r.stdout.splitlines()
    assert lines[:2] == ["3 seeds compared", f"a: in {old} only, at 1 seeds"]
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[3:]}
    assert rows == {("b", "gap"): ["2", "2.500e-01"], ("b", "lhs"): ["2", "2.500e-01"],
                    ("b", "pass"): ["1", "-"]}
    # the same records on both sides: no rows and exit 0
    r = subprocess.run([sys.executable, script, "--diff", str(old), str(old)],
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (0, "3 seeds compared\n")


def test_seed_sweep_diff_refuses_an_empty_or_missing_directory(tmp_path, capsys):
    # a mistyped path would otherwise compare 0 seeds and pass
    main = _script("seed_sweep").main
    full, empty = tmp_path / "full", tmp_path / "empty"
    full.mkdir()
    empty.mkdir()
    (full / "seed-0.json").write_text(json.dumps(_records(0.5)))
    for old, new, named in [(tmp_path / "missing", full, "missing"),
                            (full, tmp_path / "missing", "missing"),
                            (full, empty, "empty"), (empty, full, "empty")]:
        assert main(["--diff", str(old), str(new)]) == 2, (old, new)
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: no seed-*.json in {tmp_path / named}\n"


def test_seed_sweep_refuses_an_out_dir_that_is_a_file(tmp_path, capsys):
    out_file = tmp_path / "out"
    out_file.write_text("")
    assert _script("seed_sweep").main([str(out_file)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and str(out_file) in err
