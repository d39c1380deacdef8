import json
import subprocess
import sys
from pathlib import Path


def _bench_passes_its_checks(workload: str, trace: int) -> None:
    # a short run of the benchmark: every output is checked against the
    # exact references; traced, with the tracer wrapped around the
    # package, and untraced, the run whose end-to-end metrics are timed
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_ground_states_bench_passes_its_checks_traced():
    _bench_passes_its_checks("ground_states", trace=1)


def test_phase_sweep_bench_passes_its_checks_traced():
    _bench_passes_its_checks("phase_sweep", trace=1)


def test_finite_volume_bench_passes_its_checks_traced():
    _bench_passes_its_checks("finite_volume", trace=1)


def test_ground_states_bench_passes_its_checks_untraced():
    _bench_passes_its_checks("ground_states", trace=0)


def test_phase_sweep_bench_passes_its_checks_untraced():
    _bench_passes_its_checks("phase_sweep", trace=0)


def test_finite_volume_bench_passes_its_checks_untraced():
    _bench_passes_its_checks("finite_volume", trace=0)
