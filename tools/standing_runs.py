"""The standing seeded runs of one checkout, and a comparison of two sets.

    python3 tools/standing_runs.py run OUT [--checkout DIR] [--base DIR]
    python3 tools/standing_runs.py compare DIR_A DIR_B

`run` runs, with POLYSCORE_THREADS=1 and the checkout's own src/ (default
the checkout this script sits in), the synthetic dataset, a pre-training run
and fine-tuning runs of bi, poly:16, poly:first_m:4 and cross (one step in
one part, and in four parts), each in its own subdirectory of OUT. The fine-tunes start from OUT's pre-training run, or
from the pre-training run directory `--base` names, which lets two checkouts
fine-tune from one base when their pre-training differs by rounding.

`compare` checks that every checkpoint of the two sets is byte-identical and
that their `metrics.jsonl` rows are equal but for `wall_clock_s`. For each run
whose checkpoint differs it prints the largest parameter difference, and for
each run whose rows differ the largest relative difference of a logged loss.
It exits 0 when everything matches and 1 otherwise.

A change that rounds pre-training differently makes every fine-tune differ
as well, so compare a change with its parent twice:

    python3 tools/standing_runs.py run P --checkout PARENT
    python3 tools/standing_runs.py run C_own --checkout CHANGE
    python3 tools/standing_runs.py run C_base --checkout CHANGE --base P/pretrain
    python3 tools/standing_runs.py compare P C_base   # the fine-tuning path alone
    python3 tools/standing_runs.py compare P C_own    # the combined effect
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRETRAIN = ("--seed", "3", "--steps", "40", "--batch-size", "8", "--vocab-size", "600",
            "--lr", "1e-3", "--warmup", "10", "--eval-interval", "10")
FINETUNES = {  # run directory: train arguments
    "bi": ("--arch", "bi", "--steps", "20", "--batch-size", "8"),
    "poly16": ("--arch", "poly:16", "--steps", "20", "--batch-size", "8"),
    "poly_first_m4": ("--arch", "poly:first_m:4", "--steps", "20", "--batch-size", "8"),
    "cross": ("--arch", "cross", "--steps", "6", "--batch-size", "4", "--n-candidates", "4"),
    # 64 pairs a step: four 16-pair parts, where the run above is one part
    "cross_parts": ("--arch", "cross", "--steps", "6", "--batch-size", "4",
                    "--n-candidates", "16"),
}
TRAINED = ("pretrain", *FINETUNES)


def polyscore(checkout: Path, *args) -> None:
    env = {**os.environ, "POLYSCORE_THREADS": "1", "PYTHONPATH": str(checkout / "src")}
    subprocess.run([sys.executable, "-m", "polyscore.cli", *map(str, args)], env=env,
                   check=True, stdout=subprocess.DEVNULL)


def run(out: Path, checkout: Path, base: Path | None) -> None:
    data = out / "data"
    polyscore(checkout, "synth", "--task", "overlap", "--seed", "1", "--n-train", "200",
              "--out-dir", data)
    polyscore(checkout, "pretrain", "--corpus", data / "train.jsonl", "--valid",
              data / "test.jsonl", "--out-dir", out / "pretrain", *PRETRAIN)
    base = base or out / "pretrain"
    for name, args in FINETUNES.items():
        polyscore(checkout, "train", "--data", data / "train.jsonl", "--checkpoint",
                  base / "checkpoint.bin", "--vocab", base / "vocab.txt", "--out-dir",
                  out / name, "--seed", "2", "--eval-interval", "5", *args)


def metrics_rows(path: Path) -> list[dict]:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [{k: v for k, v in row.items() if k != "wall_clock_s"} for row in rows]


def largest_parameter_difference(a: Path, b: Path) -> float:
    from polyscore.model import load_checkpoint

    pa, pb = (load_checkpoint(p).named_parameters() for p in (a, b))
    if set(pa) != set(pb) or any(pa[n].shape != pb[n].shape for n in pa):
        return float("inf")
    return max(float(abs(pa[n].data - pb[n].data).max()) for n in pa)


def largest_loss_difference(a: list[dict], b: list[dict]) -> float:
    """Largest |x - y| / max(|x|, |y|) over the losses of matching rows."""
    if [sorted(r) for r in a] != [sorted(r) for r in b]:
        return float("inf")
    diffs = [abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
             for ra, rb in zip(a, b) for key in ra if key.endswith("loss")
             for x, y in [(ra[key], rb[key])] if x is not None and y is not None]
    return max(diffs, default=0.0)


def compare(a: Path, b: Path) -> list[str]:
    """One line per run: whether its checkpoint bytes and metrics rows match."""
    problems, lines = 0, []
    for name in ("data/train.jsonl", "data/test.jsonl"):
        same = (a / name).read_bytes() == (b / name).read_bytes()
        problems += not same
        lines.append(f"{name}: {'identical' if same else 'DIFFERS'}")
    for name in TRAINED:
        ckpt_a, ckpt_b = a / name / "checkpoint.bin", b / name / "checkpoint.bin"
        same_ckpt = ckpt_a.read_bytes() == ckpt_b.read_bytes()
        rows_a, rows_b = (metrics_rows(d / name / "metrics.jsonl") for d in (a, b))
        same_rows = rows_a == rows_b
        problems += (not same_ckpt) + (not same_rows)
        line = (f"{name}: checkpoint {'byte-identical' if same_ckpt else 'DIFFERS'}, "
                f"metrics rows {'equal' if same_rows else 'DIFFER'}")
        if not same_ckpt:
            line += f", largest parameter difference {largest_parameter_difference(ckpt_a, ckpt_b):.3g}"
        lines.append(line)
        if not same_rows:
            lines.append(f"{name}: largest relative loss difference "
                          f"{largest_loss_difference(rows_a, rows_b):.3g}")
    lines.append("all match" if not problems else f"{problems} mismatches")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the standing seeded runs into OUT")
    p.add_argument("out", type=Path)
    p.add_argument("--checkout", type=Path, default=ROOT, help="checkout whose src/ runs")
    p.add_argument("--base", type=Path, help="pre-training run directory the fine-tunes start from")
    p = sub.add_parser("compare", help="compare two directories that `run` wrote")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.out, args.checkout.resolve(), args.base and args.base.resolve())
        return 0
    lines = compare(args.a, args.b)
    print("\n".join(lines))
    return 0 if lines[-1] == "all match" else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
