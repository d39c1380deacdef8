import json
import subprocess
import sys
from pathlib import Path


def _bench_passes_its_checks_traced(workload: str) -> None:
    # a short traced run of the benchmark: every output is checked against
    # the exact references, with the tracer wrapped around the package
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_ground_states_bench_passes_its_checks_traced():
    _bench_passes_its_checks_traced("ground_states")


def test_phase_sweep_bench_passes_its_checks_traced():
    _bench_passes_its_checks_traced("phase_sweep")


def test_finite_volume_bench_passes_its_checks_traced():
    _bench_passes_its_checks_traced("finite_volume")
