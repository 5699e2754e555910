"""declab benchmark: one workload, one run, one JSON result line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; declab is imported from ./src.
Workloads (see README.md and BENCHMARK.json):

  entropy_batch  conditional min- and collision entropies of random states
  group_average  verifiers that average over permutations, Haar samples
                 and circuit ensembles
  cli_suite      `declab verify --suite all --output json` as a subprocess

Each workload is a closed loop with one client in one process, with BLAS
pinned to one thread before numpy is imported. With --trace 0 the result
carries the end-to-end metrics; with --trace 1 it runs the same work
untraced and then traced, and carries the per-layer metrics of the traced
run, the tracing overhead among them. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the line before it records
the environment and details (tail percentile, sample counts).
"""

import os

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchmark_out"
SETUP_PROBES = 5            # set-ups timed per run; setup_s is their median
SUBPROCESS_TIMEOUT_S = 80
WORKLOAD_NAMES = ("entropy_batch", "group_average", "cli_suite")


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd, stdout_path):
    """Run one child process to completion; (wall s, exit code, peak RSS MB)."""
    with open(stdout_path, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, cwd=ROOT, env=subprocess_env())
        killer = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def measure_setup(workload: str, seed: int, seconds: int) -> float:
    """Median time from a fresh interpreter to declab imported and inputs built."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(seconds)]
    walls = []
    for i in range(SETUP_PROBES + 1):      # the first fills the bytecode caches
        wall, code, _ = run_child(cmd, OUT / "setup_probe.out")
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        if i:
            walls.append(wall)
    return statistics.median(walls)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in PINNED},
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def run_pass(items, runner, checker):
    """Run every item once; (wall s, per-item s, outputs, failed count)."""
    times, outputs, failed = [], [], 0
    start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        try:
            out = runner(item)
        except Exception:
            print(f"item {item.label} raised:", file=sys.stderr)
            traceback.print_exc()
            out = None
        times.append(time.perf_counter() - t0)
        if out is None or not checker(item, out):
            failed += 1
            if out is not None:
                print(f"item {item.label} failed its output check", file=sys.stderr)
        outputs.append(out)
    return time.perf_counter() - start, times, outputs, failed


def mismatches(digest, first, second) -> int:
    """Items whose outputs differ between two passes over the same inputs."""
    return sum(a is None or b is None or digest(a) != digest(b) for a, b in zip(first, second))


def in_process(workload: str, seed: int, seconds: int, trace: bool):
    """Passes over the same items. Untraced, `workloads.PASSES` passes make
    the timed phase, and an item's time is its fastest run, which filters out
    the host's short slow spells. Traced, one untraced pass then one traced
    pass."""
    import layers
    import workloads

    build, runner, checker, digest = workloads.WORKLOADS[workload]
    tracer = layers.make_tracer()
    if trace:
        with tracer.active():
            items = build(seed, seconds)
    else:
        items = build(seed, seconds)
    runner(items[0])                      # lazy imports and caches settle first
    if trace:
        passes = [run_pass(items, runner, checker)]
        with tracer.active():
            passes.append(run_pass(items, runner, checker))
        tracer.write(OUT / f"spans-{workload}-{seed}.json")
    else:
        passes = [run_pass(items, runner, checker) for _ in range(workloads.PASSES)]
    mismatched = sum(mismatches(digest, passes[0][2], p[2]) for p in passes[1:])
    if mismatched:
        print(f"{mismatched} item runs differ from the first pass", file=sys.stderr)
    attempted = len(items) * len(passes)
    failed = sum(p[3] for p in passes) + mismatched
    walls = [p[0] for p in passes]
    if trace:
        metrics = layers.layer_metrics(tracer.dump())
        metrics.update({"trace.wall_s": walls[1], "trace.overhead_s": walls[1] - walls[0]})
        detail = {"items": len(items), "untraced_wall_s": walls[0], "mismatched": mismatched}
        return attempted, failed, metrics, detail
    wall = sum(walls)
    times = [min(runs) for runs in zip(*(p[1] for p in passes))]
    tail, pct = layers.tail(times)
    metrics = {
        "wall_s": wall,
        "items_per_s": attempted / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"items": len(items), "pass_walls_s": walls,
              "item_p50_ms": 1000 * statistics.median(times), "item_tail_ms": 1000 * tail,
              "tail_percentile": pct, "item_samples": len(times), "mismatched": mismatched}
    return attempted, failed, metrics, detail


# ---------------------------------------------------------------------------
# cli_suite
# ---------------------------------------------------------------------------

def cli_invocation(seed: int, tag: str, traced: bool):
    args = ["verify", "--suite", "all", "--seed", str(seed), "--output", "json"]
    spans = OUT / f"spans-cli_suite-{seed}.json"
    if traced:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *args]
    else:
        cmd = [sys.executable, "-m", "declab", *args]
    out_path = OUT / f"cli-{seed}-{tag}.json"
    wall, code, rss = run_child(cmd, out_path)
    return wall, code, rss, out_path.read_bytes(), spans


def cli_records_failed(code: int, raw: bytes, reference: bytes):
    """(records, failed records) of one invocation; a nonzero exit, output
    that does not parse, or output that differs from the first invocation
    fails every record of it."""
    try:
        records = json.loads(raw)
    except ValueError:
        return 1, 1
    n = max(1, len(records))
    if code != 0 or raw != reference or not records:
        return n, n
    return n, sum(not r["pass"] for r in records)


def cli_suite(seed: int, trace: bool):
    """One invocation untraced; traced, a second one at the same seed runs
    through the tracer and must print byte-identical JSON."""
    runs = [cli_invocation(seed, "plain", traced=False)]
    if trace:
        runs.append(cli_invocation(seed, "traced", traced=True))
    attempted = failed = 0
    for _, code, _, raw, _ in runs:
        n, bad = cli_records_failed(code, raw, runs[0][3])
        attempted += n
        failed += bad
    wall, _, rss, raw, _ = runs[0]
    if not trace:
        metrics = {"wall_s": wall, "items_per_s": attempted / wall, "peak_rss_mb": rss}
        detail = {"records": attempted}
        return attempted, failed, metrics, detail
    import layers

    traced_wall = runs[1][0]
    metrics = layers.layer_metrics(json.loads(runs[1][4].read_text()))
    metrics.update({"trace.wall_s": traced_wall, "trace.overhead_s": traced_wall - wall})
    detail = {"records": attempted // 2, "untraced_wall_s": wall,
              "identical": runs[1][3] == raw}
    return attempted, failed, metrics, detail


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "declab" / "__init__.py").is_file():
        print(f"error: no declab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    setup_s = None
    if not args.trace:
        setup_s = measure_setup(args.workload, args.seed, args.seconds)
    if args.workload == "cli_suite":
        attempted, failed, metrics, detail = cli_suite(args.seed, bool(args.trace))
    else:
        attempted, failed, metrics, detail = in_process(
            args.workload, args.seed, args.seconds, bool(args.trace))
    if setup_s is not None:
        metrics["setup_s"] = setup_s

    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "seconds": args.seconds, "env": environment(), "detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]] if not args.trace
                                else metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
