"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

from conftest import planted_instance, write_vec

README = Path(__file__).resolve().parent.parent / "README.md"


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
    write_vec(tmp_path / "src.vec", src_words, inst["S"].data)
    write_vec(tmp_path / "trg.vec", trg_words, inst["T"].data)
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{n} induced pairs"
    got = sorted(tuple(line.split()[:2]) for line in lines[1:])
    assert got == sorted((src_words[j], trg_words[inv[j]]) for j in range(n))
