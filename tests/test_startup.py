"""The commands start on numpy alone: scipy is loaded only by evaluate --wordsim.

Each check runs in a fresh interpreter, since the test process itself has
imported scipy for the oracles.
"""

import os
import subprocess
import sys

import pytest

from conftest import write_planted_numerals
import lexmatch.cli
from lexmatch.cli import main

SRC = os.path.dirname(os.path.dirname(lexmatch.cli.__file__))

# the lexmatch command line in an interpreter where `import scipy` fails
WITHOUT_SCIPY = (
    "import sys; sys.modules['scipy'] = None; "
    "from lexmatch.cli import main; sys.exit(main(sys.argv[1:]))"
)


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


def test_import_loads_no_scipy():
    out = run_python(
        "-c",
        "import sys, lexmatch, lexmatch.cli; "
        "print(sorted(k for k in sys.modules if k.startswith('scipy')))",
    )
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout.decode() == "[]\n"


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    return write_planted_numerals(tmp_path_factory.mktemp("planted"))


def session(planted, out_dir):
    """induce, evaluate, hubness and query argument lists, writing into out_dir."""
    common = ["--model", str(out_dir / "m.npz"),
              "--src-emb", planted["src"], "--trg-emb", planted["trg"]]
    return [
        ["induce", "--src-emb", planted["src"], "--trg-emb", planted["trg"],
         "--seed", "numerals", "--out-dict", str(out_dir / "dict.tsv"),
         "--model-out", str(out_dir / "m.npz"), "--quiet"],
        ["evaluate", *common, "--eval-dict", planted["gold"]],
        ["hubness", *common, "--queries", planted["gold"], "--k", "3",
         "--out", str(out_dir / "hub.tsv")],
        ["query", *common, "--word", planted["src_words"][0], "--word", "absent",
         "--word", planted["src_words"][20], "--topn", "4"],
    ]


def test_commands_match_the_in_process_run_without_scipy(planted, tmp_path, capsys):
    """Without scipy, each command prints and writes what it does with it."""
    ref_dir, bare_dir = tmp_path / "ref", tmp_path / "bare"
    ref_dir.mkdir()
    bare_dir.mkdir()
    printed = []
    for ref_argv, bare_argv in zip(session(planted, ref_dir), session(planted, bare_dir)):
        assert main(ref_argv) == 0
        bare = run_python("-c", WITHOUT_SCIPY, *bare_argv)
        assert bare.returncode == 0, bare.stderr.decode()
        assert bare.stdout == capsys.readouterr().out.encode()
        printed.append(bare.stdout)
    for name in ("dict.tsv", "hub.tsv"):
        assert (bare_dir / name).read_bytes() == (ref_dir / name).read_bytes()
    assert printed[1].startswith(b"p_at_1\t1.000000\n")
    assert b"absent\tOOV\n" in printed[3]


def test_wordsim_without_scipy_fails_with_one_line(planted, tmp_path, capsys):
    """evaluate --wordsim needs scipy: one error line, exit 1, no traceback."""
    ws = tmp_path / "ws.tsv"
    ws.write_text("".join(
        f"{planted['src_words'][j]}\t{planted['trg_words'][j]}\t{j}\n" for j in range(6)
    ))
    assert main(session(planted, tmp_path)[0]) == 0
    argv = ["evaluate", "--model", str(tmp_path / "m.npz"), "--src-emb", planted["src"],
            "--trg-emb", planted["trg"], "--wordsim", str(ws)]
    assert main(argv) == 0  # the same file scores with scipy present
    capsys.readouterr()
    bare = run_python("-c", WITHOUT_SCIPY, *argv)
    err = bare.stderr.decode()
    assert bare.returncode == 1
    assert bare.stdout == b""
    assert err.startswith("error: ") and err.count("\n") == 1 and "scipy" in err
    assert "Traceback" not in err
