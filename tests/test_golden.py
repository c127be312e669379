"""Golden run digest: one small, fixed CLI session, hashed output by output.

The seeded runs are meant to be bit-reproducible, so every file the
session writes and every stdout it prints has a fixed SHA-256, recorded
in ``golden.txt`` beside this file.  A change that keeps the bits leaves
the test green; a change that moves them on purpose rewrites the file:

    PYTHONPATH=src python tests/test_golden.py

``golden.txt`` also records the numpy and OpenBLAS versions it was
written with, because another BLAS build or CPU family may pick other
kernels and so other last bits.
"""

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from motorgame.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden.txt")

# (name, argv, files the command writes), run in order in one directory
SESSION = [
    ("catalog", ["catalog", "--train-per-machine", "8", "--holdout-per-machine", "2"],
     ["catalog.txt"]),
    ("train", ["train", "--horizon", "128", "--total-steps", "3072"],
     ["checkpoint.txt", "metrics.txt"]),
    ("resume", ["train", "--resume", "--total-steps", "5120"],
     ["checkpoint.txt", "metrics.txt"]),
    ("eval_ppo_stochastic", ["eval", "--agent", "ppo"], ["episodes.csv"]),
    ("eval_ppo_argmax", ["eval", "--agent", "ppo", "--eval-mode", "argmax"],
     ["episodes.csv"]),
    ("eval_random", ["eval", "--agent", "random"], ["episodes.csv"]),
    ("eval_greedy", ["eval", "--agent", "greedy"], ["episodes.csv"]),
    ("eval_oracle", ["eval", "--agent", "oracle"], ["episodes.csv"]),
    ("oracle_all", ["oracle", "--split", "all"], []),
    ("inspect", ["inspect", "2"], []),
]


def versions() -> dict[str, str]:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_session() -> dict[str, str]:
    """Run SESSION in the current directory; one digest per stdout and per
    written file, named ``<step>.stdout`` and ``<step>.<file>``.  The train
    lines' ``steps_per_s`` field is wall-clock time, so it is removed."""
    digests = {}
    for name, argv, files in SESSION:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, f"{name}: exit {code}"
        text = re.sub(r" steps_per_s=\S+", "", out.getvalue())
        digests[f"{name}.stdout"] = _sha256(text.encode())
        for file in files:
            digests[f"{name}.{file}"] = _sha256(Path(file).read_bytes())
    return digests


def read_golden() -> tuple[dict[str, str], dict[str, str]]:
    """The recorded versions and digests."""
    entries = dict(line.split(" = ", 1) for line in GOLDEN.read_text().splitlines()
                   if line and not line.startswith("#"))
    recorded = {key: entries.pop(key) for key in versions()}
    return recorded, entries


def test_golden_session_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = run_session()
    recorded, expected = read_golden()
    moved = sorted(name for name in expected.keys() | digests.keys()
                   if expected.get(name) != digests.get(name))
    assert not moved, (
        f"digests differ from {GOLDEN.name}: {', '.join(moved)}; written with "
        f"{recorded}, running {versions()}.  If the bits moved on purpose, "
        "regenerate with: PYTHONPATH=src python tests/test_golden.py")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        digests = run_session()
    lines = ["# regenerate with: PYTHONPATH=src python tests/test_golden.py",
             *(f"{key} = {value}" for key, value in versions().items()),
             *(f"{name} = {digest}" for name, digest in digests.items())]
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
