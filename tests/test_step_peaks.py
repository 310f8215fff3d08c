"""tools/step_peaks.py runs each kind of training step under tracemalloc and
prints one JSON object of peaks, on the probe data and on a benchmark
workload's examples."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_peaks.py"
spec = importlib.util.spec_from_file_location("step_peaks", TOOL)
step_peaks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(step_peaks)


def test_prints_a_peak_per_kind_and_batch(capsys):
    assert step_peaks.main(["probe", "--batch", "2", "3", "--kinds", "bi", "poly16"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["data"] == "probe" and set(out["peak_mb"]) == {"bi", "poly16"}
    for kind in ("bi", "poly16"):
        assert set(out["peak_mb"][kind]) == {"2", "3"}
        assert 0.0 < out["peak_mb"][kind]["2"] <= out["peak_mb"][kind]["3"]


def test_a_workload_runs_every_kind_at_the_benchmark_batch_sizes():
    peaks = step_peaks.peaks("train-finetune", 1, None, list(step_peaks.KINDS))
    assert {k: list(v) for k, v in peaks.items()} == {
        k: [str(b)] for k, b in step_peaks.BENCH_BATCH.items()}
    assert all(v > 0.0 for per in peaks.values() for v in per.values())
