"""Check that two versions of qdportfolio write the same files.

    python tools/same_program.py OLD [NEW]

OLD and NEW are git refs of this repository; NEW defaults to the working
tree, uncommitted edits included.  Each ref is checked out by a local
`git clone`, with no network.  One fixed corpus of CLI commands runs on
each side through `PYTHONPATH=<side>/src python -m qdportfolio.cli`, and
every file it writes is compared byte for byte.  `timing.csv`, the one
file that holds wall-clock times, is skipped.  The script prints each
differing file, then `identical N, different M, timing.csv skipped K;
src lines A → B`, where A and B count the lines of each side's
`src/qdportfolio/*.py` as `wc -l` does, and exits 1 when M > 0.  A differing file that is a JSON object on both
sides, such as a checkpoint, is printed with the dotted paths of the keys
that differ or exist on one side only: `different: half/checkpoint.best
(state.iteration)`.

The corpus: a 12-asset, 300-day `synth`; `ingest` of its prices and of
the fixture's, so both callers of the price writer are compared; `train`
for 30 iterations at learning rates 0.01 and 0.3 with `--window 60`;
`train` for 15 iterations, then `--resume` to 30, once at the default
cadence, once with `eval_every=30` (the benchmark's resume shape: both
runs end at their best, so each writes a `checkpoint.final` without a
nested best) and once with `--optimizer nadam` (whose optimizer state
holds a numpy scalar, `mu_product`, beside its arrays); `eval` of the
best checkpoint, and of the final one with `--eval-seed 7`; `plot`;
`compare --iterations 12` plus `eval` of its cmaes and rprop best
checkpoints; `compare --train-fraction 0.7`; and the
`tests/data/checkpoint_v1` fixture through `eval` (`--resume` refuses a
version 1 checkpoint, so the corpus does not resume it).  Each
command's exit code and stdout are kept in `commands.txt`, which is
compared like any other file.  The stderr of the documented failures is
pinned by `tests/test_cli.py`, not here.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SKIPPED = "timing.csv"
# one BLAS thread: the fixture was written that way, and it keeps the run small
_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _corpus() -> list[tuple[str, list[str]]]:
    """(name, argv) per command, with paths relative to the output directory."""
    data = ["--data", "synth/prices.csv"]
    v1 = ["--data", "../fixture/prices.csv"]

    def train(iterations: int, *rest: str) -> list[str]:
        return ["train", *data, "--window", "60", "--iterations", str(iterations), *rest]

    def evaluate(checkpoint: str, out: str, *rest: str) -> list[str]:
        return ["eval", checkpoint, *data, *rest, "--out", out]

    def compare(out: str, *rest: str) -> list[str]:
        return ["compare", *data, "--window", "60", "--iterations", "12", *rest, "--out", out]

    return [
        ("synth", ["synth", "--assets", "12", "--days", "300", "--out", "synth"]),
        ("ingest_synth", ["ingest", *data, "--out", "ingest_synth"]),
        ("ingest_v1", ["ingest", *v1, "--out", "ingest_v1"]),
        ("train_lr_0.01", train(30, "--config", "../lr_0.01.config", "--out", "lr_0.01")),
        ("train_lr_0.3", train(30, "--config", "../lr_0.3.config", "--out", "lr_0.3")),
        ("train_half", train(15, "--out", "half")),
        ("train_resumed", train(30, "--resume", "half/checkpoint.final", "--out", "resumed")),
        ("train_sparse_half", train(15, "--config", "../eval_30.config", "--out", "sparse_half")),
        ("train_sparse_resumed", train(30, "--config", "../eval_30.config",
                                       "--resume", "sparse_half/checkpoint.final",
                                       "--out", "sparse_resumed")),
        ("train_nadam_half", train(15, "--optimizer", "nadam", "--out", "nadam_half")),
        ("train_nadam_resumed", train(30, "--optimizer", "nadam",
                                      "--resume", "nadam_half/checkpoint.final",
                                      "--out", "nadam_resumed")),
        ("eval_best", evaluate("lr_0.01/checkpoint.best", "eval_best")),
        ("eval_final_seed", evaluate("lr_0.01/checkpoint.final", "eval_final_seed",
                                     "--eval-seed", "7")),
        ("plot", ["plot", "--data", "eval_best/series.csv", "--out", "plot"]),
        ("compare", compare("cmp")),
        ("eval_cmaes", evaluate("cmp/runs/cmaes/checkpoint.best", "eval_cmaes")),
        ("eval_rprop", evaluate("cmp/runs/rprop/checkpoint.best", "eval_rprop")),
        ("compare_fraction", compare("cmp_fraction", "--train-fraction", "0.7")),
        ("v1_eval_generator", ["eval", "../fixture/generator.checkpoint", *v1,
                               "--out", "v1_eval_generator"]),
        ("v1_eval_baseline", ["eval", "../fixture/baseline.checkpoint", *v1,
                              "--out", "v1_eval_baseline"]),
    ]


def run_corpus(side: Path, work: Path) -> Path:
    """Run the corpus with checkout `side`'s package and v1 fixture; return the output directory.

    The inputs (the fixture, copied to `work/fixture`, the two rate configs
    and the cadence config) sit beside `work/out`, where the outputs go, so
    no path that names `side` or `work` reaches a file or stdout.
    """
    out = work / "out"
    out.mkdir(parents=True)
    shutil.copytree(side / "tests" / "data" / "checkpoint_v1", work / "fixture")
    for rate in ("0.01", "0.3"):
        (work / f"lr_{rate}.config").write_text(f"learning_rate={rate}\n", encoding="utf-8")
    (work / "eval_30.config").write_text("eval_every=30\n", encoding="utf-8")
    env = {**os.environ, **_ENV, "PYTHONPATH": str(side / "src")}
    log = []
    for name, argv in _corpus():
        proc = subprocess.run([sys.executable, "-m", "qdportfolio.cli", *argv], cwd=out, env=env,
                              capture_output=True, text=True, encoding="utf-8")
        log.append(f"{name}: exit {proc.returncode}\n{proc.stdout}")
    (out / "commands.txt").write_text("".join(log), encoding="utf-8")
    return out


def compare_trees(a: Path, b: Path) -> tuple[list[str], list[str], int]:
    """(identical, different, skipped) relative paths; a file on one side only differs."""
    files_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    identical, different, skipped = [], [], 0
    for rel in sorted(files_a | files_b):
        if Path(rel).name == SKIPPED:
            skipped += 1
        elif rel in files_a and rel in files_b and (a / rel).read_bytes() == (b / rel).read_bytes():
            identical.append(rel)
        else:
            different.append(rel)
    return identical, different, skipped


def json_key_diff(a: Path, b: Path) -> list[str]:
    """Dotted paths at which two JSON object files differ; [] unless both hold one."""
    try:
        docs = [json.loads(path.read_text(encoding="utf-8")) for path in (a, b)]
    except (OSError, UnicodeDecodeError, ValueError):
        return []
    if not all(isinstance(doc, dict) for doc in docs):
        return []
    paths = []

    def walk(x, y, path: str) -> None:
        if isinstance(x, dict) and isinstance(y, dict):
            for key in sorted(x.keys() | y.keys()):
                sub = f"{path}.{key}" if path else key
                if key in x and key in y:
                    walk(x[key], y[key], sub)
                else:
                    paths.append(sub)
        elif x != y:
            paths.append(path)

    walk(*docs, "")
    return paths


def src_lines(side: Path) -> int:
    """The newlines in checkout `side`'s `src/qdportfolio/*.py`: their `wc -l` total."""
    return sum(path.read_bytes().count(b"\n") for path in (side / "src" / "qdportfolio").glob("*.py"))


def _checkout(ref: str, dest: Path) -> Path:
    sha = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", f"{ref}^{{commit}}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(REPO), str(dest)], check=True)
    subprocess.run(["git", "-C", str(dest), "checkout", "--quiet", sha], check=True)
    return dest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", metavar="OLD", help="git ref of the reference version")
    parser.add_argument("new", metavar="NEW", nargs="?", default=None,
                        help="git ref to check (default: the working tree)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_program_") as tmp:
        root = Path(tmp)
        old = _checkout(args.old, root / "old")
        new = REPO if args.new is None else _checkout(args.new, root / "new")
        run_old, run_new = run_corpus(old, root / "run_old"), run_corpus(new, root / "run_new")
        identical, different, skipped = compare_trees(run_old, run_new)
        for rel in different:
            keys = json_key_diff(run_old / rel, run_new / rel)
            print(f"different: {rel}" + (f" ({', '.join(keys)})" if keys else ""))
        lines = f"src lines {src_lines(old)} → {src_lines(new)}"
    print(f"identical {len(identical)}, different {len(different)}, {SKIPPED} skipped {skipped}; {lines}")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
