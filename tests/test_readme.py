"""The README's Quick start and library example run as written."""

import re
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import planted_instance
from lexmatch.embeddings import Lexicon, save_embeddings

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
DEMO = ROOT / "scripts" / "planted_demo.py"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    """On a noiseless planted pair of files sharing every fifth word as a
    numeral, the example prints the full, correct dictionary."""
    n = 60
    inst = planted_instance(n, 8, 0.0, 0, np.random.default_rng(3))
    inv = inst["inv"]  # source j's true target
    src_words = [str(j) if j % 5 == 0 else f"s{j}" for j in range(n)]
    trg_words = [None] * n
    for j in range(n):
        trg_words[inv[j]] = str(j) if j % 5 == 0 else f"t{j}"
    save_embeddings(tmp_path / "src.vec", Lexicon(src_words), inst["S"])
    save_embeddings(tmp_path / "trg.vec", Lexicon(trg_words), inst["T"])
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{n} induced pairs"
    got = sorted(tuple(line.split()[:2]) for line in lines[1:])
    assert got == sorted((src_words[j], trg_words[inv[j]]) for j in range(n))


def test_quick_start_demo_scores_one(tmp_path, monkeypatch, capsys):
    """The Quick start script, on a 60-word instance, trains through the
    command line and recovers the planted dictionary exactly."""
    argv = ["--out-dir", str(tmp_path), "--n", "60", "--dim", "8", "--n-seeds", "10"]
    monkeypatch.setattr(sys, "argv", [str(DEMO), *argv])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(DEMO), run_name="__main__")
    assert exit_.value.code == 0
    assert "p_at_1\t1.000000" in capsys.readouterr().out.splitlines()
