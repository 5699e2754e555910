import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from declab import suites, twirl
from declab.cli import SUITES, main
from declab.suites import SuiteConfig, build_checks
from declab.verify import bound_report, equality_report


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "declab", *args],
                          capture_output=True, text=True)


def test_suite_groups_exit_zero(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "--suite", "groups", "--seed", "1",
                 "--output", "json", "--out", str(out)])
    assert code == 0
    records = json.loads(out.read_text())
    assert records and all(r["pass"] for r in records)
    assert set(records[0]) == {"name", "kind", "lhs", "rhs", "gap", "pass", "dims", "seed"}


def test_text_output_times_each_check_once(capsys):
    assert main(["verify", "--suite", "groups"]) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]
    checks = build_checks(SuiteConfig(suite="groups"))
    timed = [line for line in lines if line.endswith(" ms)")]
    assert len(timed) == len(checks) < len(lines)
    assert lines[0] in timed


def test_json_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["verify", "--suite", "ch6", "--seed", "5",
                     "--output", "json", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_output(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["verify", "--suite", "ch6", "--seed", "2",
                 "--output", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name,kind,lhs,rhs,gap,pass,dims,seed"
    assert len(lines) > 3


def exit_code(args):
    """cli.main's exit code, also when argparse ends the run with SystemExit."""
    try:
        return main(list(args))
    except SystemExit as exc:
        return exc.code


def test_invalid_flags_exit_two(capsys):
    # argparse rejects these values itself, with a message that names the flag
    for args in (("verify", "--suite", "nonsense"), ("verify", "--dims", "x"),
                 ("verify", "--seed", "-1"), ("circuit-study", "--depths", "2,x"),
                 ("circuit-study", "--trials", "0"), ("twirl", "--samples", "0"),
                 ("characters", "--d", "0")):
        assert exit_code(args) == 2, args
        out, err = capsys.readouterr()
        assert out == "" and f"argument {args[1]}:" in err, args
    # these reach the library, which owns the rule
    for args in (("twirl", "--d", "1"), ("twirl", "--d", "9"), ("characters", "--d", "3"),
                 ("family", "--n", "0"), ("circuit-study", "--qubits", "5"),
                 ("circuit-study", "--depths", "-1")):
        assert exit_code(args) == 2, args
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), args
    # one case through the `python -m declab` entry point
    r = run_cli("gram", "--d", "3")
    assert r.returncode == 2
    assert r.stdout == "" and r.stderr.startswith("error: ") and "d >= 4" in r.stderr


def test_unwritable_out_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing"
    for args in (("verify", "--suite", "groups", "--output", "json",
                  "--out", str(missing / "x.json")),
                 ("circuit-study", "--trials", "5", "--out", str(missing / "x.csv"))):
        assert main(list(args)) == 2, args
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), args


def test_json_and_csv_hold_the_same_records(tmp_path):
    paths = {fmt: tmp_path / f"r.{fmt}" for fmt in ("json", "csv")}
    for fmt, path in paths.items():
        assert main(["verify", "--suite", "ch7", "--seed", "3",
                     "--output", fmt, "--out", str(path)]) == 0
    header, *rows = paths["csv"].read_text().splitlines()
    from_csv = [dict(zip(header.split(","), row.split(","))) for row in rows]
    from_json = json.loads(paths["json"].read_text())
    assert len(from_json) == len(from_csv) > 20
    for j, c in zip(from_json, from_csv):
        assert (j["name"], j["kind"], j["pass"], j["seed"]) == (
            c["name"], c["kind"], c["pass"] == "true", int(c["seed"]))
        assert [j[k] for k in ("lhs", "rhs", "gap")] == [float(c[k]) for k in ("lhs", "rhs", "gap")]
        assert ";".join(f"{k}={v}" for k, v in j["dims"].items()) == c["dims"]


def test_flatten_reports_takes_every_nested_report():
    # a child under any meta key follows its parent; other meta values are skipped
    parent = equality_report("parent", 1.0, 1.0, note=3,
                             new_key=bound_report("child", 0.0, 1.0))
    flat = suites.flatten_reports([equality_report("first", 1.0, 1.0), parent])
    assert [r.name for r in flat] == ["first", "parent", "child"]
    cfg = SuiteConfig()
    assert [r.name for r in suites.flatten_reports(suites.check_distance_from_classicality(cfg))] \
        == ["distance_from_classicality", "distance_from_classicality_1norm"] * 5
    assert [r.name for r in suites.flatten_reports(suites.check_quantum_hash(cfg))] \
        == ["quantum_hash", "quantum_hash_2norm"] * 10


def test_gram_table():
    r = run_cli("gram", "--d", "4")
    assert r.returncode == 0
    rows = [line.split() for line in r.stdout.strip().splitlines()]
    assert len(rows) == 11
    assert rows[0][0] == "16"          # tr(A_1 A_1) = d^2
    assert rows[10][10] == "96"        # 2 d^3 - 2 d^2


def test_gram_table_needs_no_commutant_operators(monkeypatch, capsys):
    def refuse(d):
        raise AssertionError("commutant operators built")

    monkeypatch.setattr(twirl, "commutant_ops", refuse)
    assert main(["gram", "--d", "40"]) == 0
    rows = [[int(v) for v in line.split()] for line in capsys.readouterr().out.splitlines()]
    assert np.array_equal(np.array(rows), twirl.gram_closed_form(40))


def test_characters_table():
    r = run_cli("characters", "--d", "5")
    assert r.returncode == 0
    identity_row = [line for line in r.stdout.splitlines()
                    if line.startswith("(1, 1, 1, 1, 1)")]
    assert identity_row
    values = identity_row[0].split()
    assert values[-5:-1] == ["1", "4", "6", "5"]
    assert values[-1] == "yes"


def test_family_output():
    r = run_cli("family", "--n", "2")
    assert r.returncode == 0
    assert "12 permutations" in r.stdout
    [dep] = [line for line in r.stdout.splitlines() if "pairwise dependence" in line]
    assert float(dep.rsplit(":", 1)[1]) < 1e-12


def test_circuit_study_deterministic():
    args = ("circuit-study", "--qubits", "2", "--depths", "2,8",
            "--trials", "25", "--seed", "3", "--output", "csv")
    r1, r2 = run_cli(*args), run_cli(*args)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    assert r1.stdout.splitlines()[0] == "depth,epsilon_bound"


def test_circuit_study_json_and_csv_hold_the_same_rows(capsys):
    tables = {}
    for fmt in ("json", "csv"):
        assert main(["circuit-study", "--depths", "2,8", "--trials", "5",
                     "--output", fmt]) == 0
        tables[fmt] = capsys.readouterr().out
    header, *rows = tables["csv"].splitlines()
    assert header == "depth,epsilon_bound"
    assert json.loads(tables["json"]) == [
        {"depth": int(t), "epsilon_bound": float(e)} for t, e in (r.split(",") for r in rows)]


def test_circuit_study_scores_each_depth_once(capsys):
    assert main(["circuit-study", "--depths", "8,2,8,2", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines()] == ["depth    8", "depth    2"]
    assert main(["circuit-study", "--depths", "8,2", "--trials", "5"]) == 0
    assert capsys.readouterr().out == out


def test_circuit_study_guard():
    r = run_cli("circuit-study", "--qubits", "5")
    assert r.returncode == 2


def test_twirl_command():
    r = run_cli("twirl", "--d", "4", "--seed", "1", "--samples", "50")
    assert r.returncode == 0
    assert "alpha" in r.stdout and "permutation twirl" in r.stdout
    [dev] = [line for line in r.stdout.splitlines() if "vs orbit mean" in line]
    assert float(dev.rsplit(" ", 1)[1]) < 1e-12


def test_build_checks_suite_selection():
    cfg = SuiteConfig(suite="entropy", seed=0)
    names = [c.name for c in build_checks(cfg)]
    assert "hmin_le_h2" in names and "decoupling_lemma" not in names
    with pytest.raises(ValueError):
        build_checks(SuiteConfig(suite="bogus"))


def test_suite_registry():
    everything = [c.name for c in build_checks(SuiteConfig())]
    union = []
    for suite in SUITES[1:]:
        names = [c.name for c in build_checks(SuiteConfig(suite=suite))]
        assert names, suite
        union += names
    assert SUITES[0] == "all" and union == everything
    checks = [fn for name, fn in vars(suites).items()
              if name.startswith("check_") and inspect.isfunction(fn)]
    assert len(checks) == len(everything)
    for fn in checks:
        assert list(inspect.signature(fn).parameters) == ["cfg"], fn.__name__


def test_worst_of_keeps_the_first_of_tied_instances():
    cfg = SuiteConfig(seed=3)
    seeds = [s for _, s in suites._instances(cfg, "tie", 4)]
    values = dict(zip(seeds, (1.0, 2.0, 2.0, -1.0)))
    assert suites._worst_of(cfg, "tie", 4, lambda ss: {"m": [values[s] for s in ss]}) == [
        ("m", 2.0, {"worst_k": 1, "worst_seed": seeds[1]})]


@pytest.mark.parametrize("values, worst_k", [((1.0, np.nan, 3.0, np.nan), 1),
                                             ((np.nan,) * 4, 0)])
def test_worst_of_fails_and_names_a_nan_instance(values, worst_k):
    cfg = SuiteConfig(seed=3)
    seeds = [s for _, s in suites._instances(cfg, "nan", 4)]
    [(name, v, where)] = suites._worst_of(cfg, "nan", 4, lambda ss: {"m": np.array(values)})
    assert np.isnan(v) and where == {"worst_k": worst_k, "worst_seed": seeds[worst_k]}
    assert not bound_report(name, v, 0.0, **where).passed
    assert not equality_report(name, v, 0.0, **where).passed


def test_aggregate_records_replay_from_their_worst_seed():
    # every worst-of-N record at seed 0 names the instance that gives its lhs,
    # and the check's measure replays it exactly from a one-seed stack:
    # record name -> (check, tag, base, the measure of the record's check)
    replay = {
        **{n: (suites.check_hmin_le_h2, "hminh2", 0,
               lambda seeds: suites._hmin_records(seeds, []))
           for n in ("hmin_le_h2", "sdp_primal_feasibility")},
        **{n: (suites.check_fuchs_van_de_graaf, "fvdg", 0, suites._fvdg_excess)
           for n in ("fvdg_lower", "fvdg_upper")},
        **{n: (suites.check_norm_inequalities, "norms", 0, suites._norm_excess) for n in
           ("triple_norm_inf", "triple_norm_one", "triple_norm_two", "hoelder")},
        **{f"perm_twirl_projection[d={d}]": (
            suites.check_perm_twirl_projection, "permtw", 10 * d,
            lambda seeds, d=d: {f"perm_twirl_projection[d={d}]":
                                [suites._perm_twirl_residual(d, s) for s in seeds]})
           for d in (4, 5)},
    }
    cfg = SuiteConfig(seed=0)
    records = {rep.name: rep for check in dict.fromkeys(c for c, *_ in replay.values())
               for rep in check(cfg)}
    assert set(records) == set(replay)
    for name, (_, tag, base, measure) in replay.items():
        rep = records[name]
        k, seed = rep.meta["worst_k"], rep.meta["worst_seed"]
        assert seed == suites._instance_seed(0, tag, base + k), name
        assert float(measure([seed])[name][0]) == rep.lhs, name


def test_verify_notes_ignored_dims(capsys):
    # ch5's checks clip d_A to at most 6; a 7 among the requested dimensions is
    # named on stderr, and stdout and the exit code are those without it
    assert main(["verify", "--suite", "ch5", "--dims", "3,7", "--output", "csv"]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == [
        "note: requested dimension(s) 7 ignored by every check of suite ch5"]
    assert "d_A=3" in out and "d_A=7" not in out
    assert main(["verify", "--suite", "ch5", "--dims", "3", "--output", "csv"]) == 0
    assert capsys.readouterr() == (out, "")
    # a repeated dimension runs once
    assert main(["verify", "--suite", "ch5", "--dims", "3,3", "--output", "csv"]) == 0
    assert capsys.readouterr() == (out, "")


def test_verify_counts_record_dims_as_taken(capsys):
    # ch3's checks have fixed sizes and ignore --dims, but design_circuits
    # emits a d_A = 4 record, so a requested 4 is not named as ignored
    assert main(["verify", "--suite", "ch3", "--output", "csv"]) == 0
    out, _ = capsys.readouterr()
    assert "d_A=4" in out
    assert main(["verify", "--suite", "ch3", "--dims", "4", "--output", "csv"]) == 0
    assert capsys.readouterr() == (out, "")
