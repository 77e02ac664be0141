"""Check at benchmark scale that evaluation prints the same whether it takes
both sides from the model or parses both embedding files in full.

    python3 scripts/stored_space_check.py --seed 1

The script generates perfbench's cli-session inputs (5000 x 300 per side)
with perfbench/gen.py, trains once the way that session does, and runs
evaluate, hubness and query twice: against src.vec and trg.vec, the files
training read, whose digests let them take both sides from the model, and
against copies whose first value is rewritten to an equal float
(0.110607 -> 0.1106070), whose other digests make them parse every row.  It
exits 1 unless the exit codes, standard output and hubness files are
identical, the first runs parsed no text row and the second ones parsed
every row of each side.
"""

from __future__ import annotations

import os

# before numpy is imported, as perfbench pins it
os.environ.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from unittest import mock  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import lexmatch.cli  # noqa: E402


def equal_float_copy(src: str, dst: str) -> None:
    """src with the first value of its first row written with one more zero."""
    with open(src, encoding="utf-8") as fh:
        header = fh.readline()
        first = fh.readline().split(" ")
        value = first[1]
        if "." not in value or "e" in value.lower():
            sys.exit(f"cannot append a zero to {value!r} without changing its value")
        first[1] = value + "0"
        with open(dst, "w", encoding="utf-8") as out:
            out.write(header)
            out.write(" ".join(first))
            for line in fh:
                out.write(line)


def run(argv: list[str], stdin_path: str | None = None) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        if stdin_path:
            stdin = stack.enter_context(open(stdin_path, encoding="utf-8"))
            stack.enter_context(mock.patch("sys.stdin", stdin))
        rc = lexmatch.cli.main(argv)
    return rc, out.getvalue()


def session(d: str, out: str, src: str, trg: str) -> tuple[dict, dict]:
    """Exit code, stdout and output file of each command; rows of each text
    load, per side."""
    emb = ["--model", os.path.join(out, "model.npz"), "--src-emb", src, "--trg-emb", trg]
    gold = os.path.join(d, "gold.tsv")
    hub = os.path.join(out, "hubness.tsv")
    results = {}
    rows: dict = {src: [], trg: []}
    real = lexmatch.cli.load_embeddings

    def spy(path, *args, **kwargs):
        lex, mat = real(path, *args, **kwargs)
        rows[path].append(len(lex))
        return lex, mat

    with mock.patch.object(lexmatch.cli, "load_embeddings", spy):
        results["evaluate"] = run(["evaluate", *emb, "--eval-dict", gold, "--json"])
        results["hubness"] = run(["hubness", *emb, "--queries", gold, "--k", "20", "--out", hub])
        with open(hub, encoding="utf-8") as fh:
            results["hubness.tsv"] = fh.read()
        os.remove(hub)
        results["query"] = run(["query", *emb, "--stdin", "--topn", "10"],
                               os.path.join(d, "queries.txt"))
    return results, {"src": rows[src], "trg": rows[trg]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as out:
        subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "gen.py"), "--workload",
             "cli-session", "--seed", str(args.seed), "--out", out],
            check=True,
        )
        d = os.path.join(out, f"medium-{args.seed}")
        files = {side: os.path.join(d, f"{side}.vec") for side in ("src", "trg")}
        equal = {side: os.path.join(d, f"{side}-equal.vec") for side in ("src", "trg")}
        for side in files:
            equal_float_copy(files[side], equal[side])
        rc, _ = run([
            "induce", "--src-emb", files["src"], "--trg-emb", files["trg"],
            "--seed", "numerals", "--k", "3", "--rank-restrict", "2500",
            "--normalize", "unit_center_unit", "--threads", "1", "--quiet",
            "--out-dict", os.path.join(out, "dict.tsv"),
            "--model-out", os.path.join(out, "model.npz"),
        ])
        if rc != 0:
            print("stored_space_check: induce failed")
            return 1
        stored, stored_rows = session(d, out, files["src"], files["trg"])
        full, full_rows = session(d, out, equal["src"], equal["trg"])

    problems = [f"{name} differs" for name in stored if stored[name] != full[name]]
    problems += [f"{name} exited {stored[name][0]}" for name in ("evaluate", "hubness", "query")
                 if stored[name][0] != 0]
    parsed = sum(map(sum, stored_rows.values()))
    if parsed != 0:
        problems.append(f"the training files' loads parsed {stored_rows} rows, expected none")
    for side, rows in full_rows.items():
        if rows != [5000] * 3:
            problems.append(f"{side}-equal.vec loads returned {rows} rows, expected 5000 each")
    print(f"stored_space_check: seed {args.seed}, text rows parsed {stored_rows} "
          f"against {full_rows}: " + ("; ".join(problems) or "same"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
