"""Tests of the benchmark itself: seeded inputs, the tracer and the checks.

    python3 -m pytest benchmark -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import span_stats  # noqa: E402

from declab import cli, linalg, states, verify  # noqa: E402


def canonical(x):
    """A comparable form of generated inputs."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, states.DensityOp):
        return ("rho", canonical(x.mat), x.dims)
    if isinstance(x, states.ChoiChannel):
        return ("choi", canonical(x.choi), x.d_in, x.d_out, x.tp)
    if isinstance(x, workloads.Item):
        return (x.label, x.fn, canonical(x.args), canonical(x.kwargs))
    if isinstance(x, (list, tuple)):
        return tuple(canonical(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, canonical(v)) for k, v in x.items()))
    return x


@pytest.mark.parametrize("workload", ["entropy_batch", "group_average"])
def test_same_seed_same_inputs(workload):
    first = canonical(workloads.build_inputs(workload, 7, 3))
    assert first == canonical(workloads.build_inputs(workload, 7, 3))
    assert first != canonical(workloads.build_inputs(workload, 8, 3))


def test_pass_size_follows_seconds_only():
    short = workloads.build_inputs("entropy_batch", 1, 5)
    long = workloads.build_inputs("entropy_batch", 1, 20)
    assert len(long) > len(short)
    assert canonical(long[:len(short)]) == canonical(short)


def _declab_bindings():
    return {(name, key): value for name, mod in sys.modules.items()
            if name == "declab" or name.startswith("declab.")
            for key, value in vars(mod).items() if callable(value)}


@pytest.mark.parametrize("workload, picks", [
    ("entropy_batch", slice(0, 9)),
    ("group_average", slice(0, 15)),
])
def test_traced_pass_returns_untraced_results(workload, picks):
    build, runner, checker, digest = workloads.WORKLOADS[workload]
    items = build(11, 3)[picks]
    plain = [digest(runner(item)) for item in items]
    tracer = layers.make_tracer()
    with tracer.active():
        traced = [runner(item) for item in items]
    assert [digest(out) for out in traced] == plain
    assert all(checker(item, out) for item, out in zip(items, traced))
    metrics = layers.layer_metrics(tracer.dump())
    if workload == "entropy_batch":
        assert metrics["entropy.h_min_cond.calls"] == len(items)
        assert metrics["entropy.h2_cond_opt.calls"] == len(items)
        assert metrics.get("entropy.order_fail", 0) == 0
    else:
        assert metrics["verify.perm_avg.calls"] == 10
        assert metrics["symgroup.perm_operator.calls"] > 0
        assert metrics["verify.report_fail"] == 0


@pytest.mark.parametrize("suite", ["ch2", "ch3", "ch5", "ch6", "ch7", "groups"])
def test_cli_json_identical_with_tracing(tmp_path, suite):
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    argv = ["verify", "--suite", suite, "--seed", "3", "--output", "json", "--out"]
    assert cli.main(argv + [str(plain)]) == 0
    tracer = layers.make_tracer()
    with tracer.active():
        assert cli.main(argv + [str(traced)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    metrics = layers.layer_metrics(tracer.dump())
    assert metrics["cli.run_suite.calls"] == 1
    assert any(k.startswith("suites.") and k.endswith(".s") for k in metrics)


def test_tracer_rebinds_from_imports_and_restores_originals():
    from declab import entropy, suites  # noqa: F401  (load every module)

    before = _declab_bindings()
    original_norm = linalg.schatten_norm
    tracer = layers.make_tracer()
    with pytest.raises(RuntimeError):
        with tracer.active():
            assert verify.schatten_norm is not original_norm
            assert verify.schatten_norm is linalg.schatten_norm
            verify.schatten_norm(np.eye(2), 2)
            raise RuntimeError("leave the block early")
    assert _declab_bindings() == before
    assert verify.schatten_norm is original_norm
    assert layers.layer_metrics(tracer.dump())["linalg.schatten_norm.calls"] == 1


def test_self_time_subtracts_direct_children():
    dump = {"names": ["outer", "inner"],
            "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [1, 5.0, 7.0, 0]],
            "counters": {}}
    stats = span_stats(dump)
    assert stats["outer"]["self_s"] == pytest.approx(5.0)
    assert stats["inner"]["self_s"] == pytest.approx(5.0)
    assert stats["inner"]["calls"] == 2


def test_tail_keeps_ten_values_beyond():
    values = list(range(100))
    assert layers.tail(values) == (89, 90.0)
    assert layers.tail([3, 1, 2]) == (3, 100.0)


def test_cli_failures_count_whole_invocations():
    good = b'[\n  {"name": "a", "pass": true},\n  {"name": "b", "pass": false}\n]\n'
    assert run.cli_records_failed(0, good, good) == (2, 1)
    assert run.cli_records_failed(1, good, good) == (2, 2)
    assert run.cli_records_failed(0, good, good.replace(b"a", b"c")) == (2, 2)
    assert run.cli_records_failed(0, b"not json", good) == (1, 1)
