"""Benchmark of lambda_tree: phase sweeps, finite-volume measures and ground
states, each output checked against exact reference computations.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from src/ next to this
directory. One process and one thread drive a closed loop: each item starts
after the previous one finished and was checked. With --trace 0 the last
line of standard output is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced pass over a fixed set
of items, plus the tracing overhead. Details of the run go to
bench/out/<workload>-seed<N>-trace<T>.json, and the spans of a traced run
to bench/out/<workload>-seed<N>-spans.jsonl. The exit code is 1 when an
output check fails, and 2 when the program cannot be found or imported.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracing import LAYERS, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOAD_NAMES = ("phase_sweep", "finite_volume", "ground_states")
SETUP_RUNS = 9          # fresh interpreters per run; setup_s is their median
WARMUP_ITEMS = 1
MIN_ITEMS = 100         # so that the p90 has at least ten samples beyond it
TRACE_ITEMS = 64        # the traced pass covers the first items of the seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one set-up pass in a fresh interpreter; the parent times it
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def import_program():
    """Import lambda_tree from src/ beside the benchmark, and nowhere else."""
    init = os.path.join(SRC_DIR, "lambda_tree", "__init__.py")
    if not os.path.isfile(init):
        print(f"error: {init} not found; run from a checkout of lambda-tree",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC_DIR)
    import lambda_tree
    if os.path.realpath(lambda_tree.__file__) != os.path.realpath(init):
        print(f"error: imported lambda_tree from {lambda_tree.__file__}, not {init}",
              file=sys.stderr)
        sys.exit(2)


def run_round(workload, items, workdir, run, latencies, problems, failures,
              tracer=None) -> None:
    """Run and check items one after another.

    Only the program call is timed. An item on which the program raises is a
    failed operation and goes to `failures`; a wrong output goes to
    `problems`."""
    for item in items:
        program_input = workload.prepare(item, workdir)
        if tracer is not None:
            tracer.item += 1
        start = time.perf_counter()
        try:
            output = run(program_input)
        except Exception as e:   # count it and go on with the next item
            failures.append(f"{type(e).__name__}: {e}")
            continue
        latencies.append(time.perf_counter() - start)
        problems += workload.check(item, output)


def setup_pass(workload, seed: int, workdir: str) -> list:
    """Input generation and warm-up; returns check problems. A failed
    warm-up item is not counted here: the measurement runs it again."""
    items = workload.make_round(seed, 0)[:WARMUP_ITEMS]
    problems = []
    run_round(workload, items, workdir, workload.run, [], problems, [])
    return problems


def time_fresh(argv: list) -> float:
    # no timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
    # which would round every set-up time up to that grid
    start = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def probe_command(args) -> list:
    """A fresh interpreter that imports the package, generates round 0 and
    runs the warm-up item."""
    return [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]


def measure(workload, seed: int, seconds: float, workdir: str, probe=None) -> dict:
    """Whole rounds until `seconds` have passed and MIN_ITEMS were attempted.

    Given a probe command, SETUP_RUNS timed set-up runs are spread over the
    measurement, each between two rounds once it is due, so that they meet
    the same spells of machine speed as the items do."""
    latencies, problems, failures, setup_runs = [], [], [], []
    attempted = rounds = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or attempted < MIN_ITEMS:
        items = workload.make_round(seed, rounds)
        attempted += len(items)
        run_round(workload, items, workdir, workload.run, latencies, problems, failures)
        rounds += 1
        due = SETUP_RUNS * (time.perf_counter() - start) / seconds
        while probe and len(setup_runs) < min(due, SETUP_RUNS):
            setup_runs.append(time_fresh(probe))
    while probe and len(setup_runs) < SETUP_RUNS:
        setup_runs.append(time_fresh(probe))
    return {"latencies": latencies, "problems": problems, "failures": failures,
            "attempted": attempted, "rounds": rounds, "setup_runs_s": setup_runs,
            "wall_s": time.perf_counter() - start}


def end_to_end(run: dict) -> dict:
    lat = sorted(run["latencies"])
    n = len(lat)
    rank90 = math.ceil(0.9 * n)
    return {
        "setup_s": (statistics.median(run["setup_runs_s"]), "s"),
        "items_per_s": (n / math.fsum(lat), "items/s"),
        "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "item_p90_ms": (lat[rank90 - 1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {"samples": n, "beyond_p90": n - rank90}


def traced_pass(workload, seed: int, workdir: str):
    items, index = [], 0
    while len(items) < TRACE_ITEMS:
        items += workload.make_round(seed, index)
        index += 1
    tracer = Tracer()
    tracer.install("lambda_tree")
    run = tracer.wrap("item", workload.run)
    traced = {"latencies": [], "problems": [], "failures": []}
    run_round(workload, items[:TRACE_ITEMS], workdir, run, traced["latencies"],
              traced["problems"], traced["failures"], tracer)
    return tracer, traced


def per_layer(t, traced: dict, untraced_ips: float) -> dict:
    """Per-layer metrics from Tracer t after a traced pass."""
    minima = t.counters.get("ground.minima_found", 0)
    states = t.counters.get("ground.states_enumerated", 0)
    traced_ips = len(traced["latencies"]) / math.fsum(traced["latencies"])
    metrics = {f"{layer}.self_s": (t.self_s(layer + "."), "s") for layer in LAYERS}
    for name in ("solver.periodic_quadratic", "solver.count_ti_roots",
                 "solver.sweep_to_csv", "poly.compose", "poly.divide_exact",
                 "poly.real_roots", "gibbs.finite_volume_measure",
                 "gibbs.is_consistent", "gibbs.propagate_ratios",
                 "gibbs.measure_to_csv", "ground.generators_for",
                 "ground.is_ground_state", "ground.brute_force_minima"):
        metrics[f"{name}.self_s"] = (t.self_s(name), "s")
    metrics.update({
        "solver.periodic_quadratic.total_s": (t.total_s("solver.periodic_quadratic"), "s"),
        "cli.main.calls": (t.calls("cli.main"), "count"),
        "tree.index_of.calls": (t.calls("tree.index_of"), "count"),
        "model.ball_energy.calls": (t.calls("model.ball_energy"), "count"),
        "gibbs.states_enumerated": (t.counters.get("gibbs.states_enumerated", 0), "count"),
        "ground.states_enumerated": (states, "count"),
        "ground.minima_per_state": (minima / states if states else 0.0, "ratio"),
        "trace.item_s": (t.total_s("item"), "s"),
        "trace.overhead_items_per_s": (traced_ips - untraced_ips, "items/s"),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("LAMBDA_TREE_THREADS", None)
    import_program()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_only:
            setup_pass(workload, args.seed, workdir)   # timed by the parent
            return 0
        return bench(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, workload, workdir: str) -> int:
    bare = [] if args.trace else [time_fresh([sys.executable, "-c", "pass"])
                                  for _ in range(SETUP_RUNS)]
    problems = setup_pass(workload, args.seed, workdir)
    run = measure(workload, args.seed, args.seconds, workdir,
                  None if args.trace else probe_command(args))
    problems += run["problems"]
    attempted, failed = run["attempted"], len(run["failures"])
    for line in run["failures"][:5]:
        print(f"failed operation: {line}", file=sys.stderr)
    if not run["latencies"]:
        print("error: every item failed; nothing to measure", file=sys.stderr)
        return 1
    untraced_ips = len(run["latencies"]) / math.fsum(run["latencies"])
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "cpu_count": os.cpu_count(), "rounds": run["rounds"],
              "wall_s": run["wall_s"], "setup_runs_s": run["setup_runs_s"],
              "bare_interpreter_runs_s": bare}
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")

    print(f"workload {args.workload}  seed {args.seed}  python {platform.python_version()}"
          f"  cpus {os.cpu_count()}  one process, one thread, closed loop")
    print(f"measured {run['rounds']} rounds, {attempted} items in {run['wall_s']:.1f} s,"
          f" {failed} failed")
    if args.trace:
        tracer, traced = traced_pass(workload, args.seed, workdir)
        problems += traced["problems"]
        metrics = per_layer(tracer, traced, untraced_ips)
        tracer.write_spans(stem + "-spans.jsonl")
        share = metrics["solver.periodic_quadratic.total_s"][0] / metrics["trace.item_s"][0]
        print(f"traced pass: the first {TRACE_ITEMS} items,"
              f" {len(traced['failures'])} failed; {tracer.spans_kept} spans kept,"
              f" {tracer.spans_dropped} dropped; untraced {untraced_ips:.4g} items/s")
        print(f"periodic_quadratic with its children: {share:.1%} of traced item time")
        report["traced_items"] = TRACE_ITEMS
    else:
        metrics, counts = end_to_end(run)
        print(f"setup: bare interpreter {statistics.median(bare):.4f} s;"
              f" fresh interpreter + import + inputs + warm-up, median of"
              f" {SETUP_RUNS} spread over the run: {metrics['setup_s'][0]:.4f} s")
        print(f"item_p90_ms over {counts['samples']} samples,"
              f" {counts['beyond_p90']} beyond it")
        report.update(counts)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    report.update(result)
    with open(stem + f"-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
