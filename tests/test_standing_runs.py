"""tools/standing_runs.py's comparison of two run directories: equal
checkpoints and metrics rows but wall clock match, and a mismatch names the
run and its largest parameter difference."""

import importlib.util
import json
from pathlib import Path

import pytest

from polyscore.encoder import ModelConfig
from polyscore.model import Model, load_checkpoint, save_checkpoint

from conftest import make_rng

TOOL = Path(__file__).resolve().parent.parent / "tools" / "standing_runs.py"
spec = importlib.util.spec_from_file_location("standing_runs", TOOL)
standing_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(standing_runs)

ROWS = [{"step": 5, "train_loss": 1.25, "valid_loss": None, "lr": 1e-3, "wall_clock_s": 0.5}]


def write_runs(root: Path, wall_clock_s: float) -> Path:
    (root / "data").mkdir(parents=True)
    for name in ("train.jsonl", "test.jsonl"):
        (root / "data" / name).write_text(f'{{"name": "{name}"}}\n')
    model = Model.init_pretrain(ModelConfig(vocab_size=8), make_rng(1))
    for run in standing_runs.TRAINED:
        (root / run).mkdir()
        save_checkpoint(model, root / run / "checkpoint.bin")
        rows = [{**row, "wall_clock_s": wall_clock_s} for row in ROWS]
        (root / run / "metrics.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    return root


@pytest.fixture
def runs(tmp_path):
    return write_runs(tmp_path / "a", 0.5), write_runs(tmp_path / "b", 9.0)


def test_equal_runs_but_wall_clock_match(runs):
    lines = standing_runs.compare(*runs)
    assert lines[-1] == "all match"
    assert "cross: checkpoint byte-identical, metrics rows equal" in lines


def test_mismatch_names_the_run_and_its_largest_parameter_difference(runs):
    _, b = runs
    path = b / "bi" / "checkpoint.bin"
    model = load_checkpoint(path)
    model.named_parameters()["enc.layers.0.attn.q.bias"].data[3] += 2.0 ** -40
    save_checkpoint(model, path)
    rows = (b / "poly16" / "metrics.jsonl").read_text().replace("1.25", "1.5")
    (b / "poly16" / "metrics.jsonl").write_text(rows)
    lines = standing_runs.compare(*runs)
    assert lines[-1] == "2 mismatches"
    assert f"bi: checkpoint DIFFERS, metrics rows equal, largest parameter difference " \
           f"{2.0 ** -40:.3g}" in lines
    assert "poly16: checkpoint byte-identical, metrics rows DIFFER" in lines
    assert standing_runs.main(["compare", str(runs[0]), str(b)]) == 1


def test_differing_rows_report_their_largest_relative_loss_difference(runs):
    _, b = runs
    rows = (b / "cross" / "metrics.jsonl").read_text().replace("1.25", "1.5")
    (b / "cross" / "metrics.jsonl").write_text(rows)
    lines = standing_runs.compare(*runs)
    assert f"cross: largest relative loss difference {0.25 / 1.5:.3g}" in lines
    assert not any("bi: largest" in line for line in lines)
