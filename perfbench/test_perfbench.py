"""Tests of the benchmark itself: tiny smoke runs, the tracer, the gates and
the BENCHMARK.json contract.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
from polyscore import encoder, model, retrieval  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny(name: str):
    """The workload's shape at a size that runs in a few seconds."""
    return dataclasses.replace(WORKLOADS[name], cache_size=60, train_examples=40,
                               cross_shortlist=12)


def _check_result(result: dict, expected: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert np.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run_emits_every_metric(name, trace, tmp_path):
    result, report = harness.run(tiny(name), seed=3, seconds=0.3, trace=trace, import_s=0.0,
                                 work_root=tmp_path, env={})
    _check_result(result, SPEC["per_layer"] if trace else SPEC["end_to_end"])
    assert report["fail_ratio"]["value"] == 0
    assert report["inputs"]["repeated_query_share"] == 0
    if trace:
        lines = Path(report["trace_file"]).read_text().splitlines()
        assert len(lines) == 1 + report["spans"]
    else:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
        assert set(report["latency_p50"]) == {f"{a}_ms_p50" for a in
                                              ("bi", "poly16", "poly64", "poly360", "cross")}
        assert set(report["throughput_mean"]) == {"index_cands_per_s", "finetune_steps_per_s",
                                                  "pretrain_steps_per_s"}


def test_tracer_restores_every_binding_and_computes_self_time():
    originals = (encoder.forward, model.forward, model.Scorer.context_vector,
                 retrieval.rank_bi)
    tr = tracing.Tracer()
    with tr.installed():
        assert model.forward is not originals[1]
        outer = tr._open("outer", "retrieval")
        inner = tr._open("inner", "encoder")
        tr._close(inner)
        tr._close(outer)
    assert (encoder.forward, model.forward, model.Scorer.context_vector,
            retrieval.rank_bi) == originals
    outer[2:4] = [0.0, 5.0]
    inner[2:4] = [1.0, 3.0]
    assert tr.self_times().tolist() == [3.0, 2.0]


def test_throughputs_use_a_high_percentile_of_unit_time():
    unit_s = [0.1] * 8 + [0.2, 1.0]  # a slow tail of 2 units in 10
    assert harness._unit_s(unit_s, "index") == pytest.approx(np.percentile(unit_s, 90))
    assert harness._unit_s(unit_s, "index") > max(0.1, np.mean(unit_s))
    with pytest.raises(RuntimeError):
        harness._unit_s([], "index")


def test_ranking_gate_rejects_wrong_rankings():
    scores = np.array([0.5, 2.0, 2.0, -1.0, 1.0])
    ok = [(1, 2.0), (2, 2.0), (4, 1.0)]
    assert harness._ranking_ok(ok, scores, 3)
    assert not harness._ranking_ok([(2, 2.0), (1, 2.0), (4, 1.0)], scores, 3)  # tie order
    assert not harness._ranking_ok([(1, 2.0), (2, 2.0), (0, 0.5)], scores, 3)  # not the best
    assert not harness._ranking_ok([(1, 2.0), (2, 2.0), (4, 1.1)], scores, 3)  # wrong score
    assert not harness._ranking_ok(ok[:2], scores, 3)


def test_inputs_depend_only_on_the_seed():
    w = tiny("rerank-longctx")
    a, b, c = Inputs(w, 5), Inputs(w, 5), Inputs(w, 6)
    assert a.pool == b.pool and a.train == b.train
    assert a.query(0, 7) == b.query(0, 7) and a.shortlist(1, 2) == b.shortlist(1, 2)
    assert a.pool != c.pool
    assert a.query(0, 7) != a.query(1, 7)
    turns = a.query(0, 3)
    assert w.context_turns[0] <= len(turns) <= w.context_turns[1]
    assert w.context_words[0] <= len(" ".join(turns).split()) <= w.context_words[1]


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])


def test_cli_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    p = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "train-finetune",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert p.returncode != 0 and "{" not in p.stdout


def test_cli_run_prints_the_result_last(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    p = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "train-finetune",
                        "--seed", "2", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    _check_result(json.loads(lines[-1]), SPEC["end_to_end"])
    env = json.loads(lines[-2])["report"]["env"]
    assert env["blas_threads"] == 1 and env["numpy"] and env["python"] and env["nproc"] >= 1
