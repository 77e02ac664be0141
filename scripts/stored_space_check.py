"""Check at benchmark scale that evaluation prints the same whether it takes
both sides from the model or parses both embedding files in full.

    python3 scripts/stored_space_check.py --seed 1

The script runs perfbench's cli-session commands (perfbench/workloads.py)
through perfbench/run.py, on that session's inputs (5000 x 300 per side,
generated by perfbench/gen.py when missing): induce once, then evaluate,
hubness and query twice.  The first time they read src.vec and trg.vec, the
files training read, whose digests let them take both sides from the model.
The second time they read copies whose first value is rewritten to an equal
float (0.110607 -> 0.1106070), whose other digests make them parse every
row.  It exits 1 unless the exit codes, standard output and hubness files
are identical, the first runs parsed no text row and the second ones parsed
every row of each side.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as perfbench  # noqa: E402  (pins BLAS to one thread before numpy loads)
from workloads import CLI_SESSION, session  # noqa: E402


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


def evaluations(cli, ops) -> tuple[dict, dict]:
    """Exit code, stdout and output file of each operation; rows of each text
    load, per side."""
    results = {}
    rows: dict = {"src": [], "trg": []}
    real = cli.load_embeddings

    def spy(path, *args, **kwargs):
        lex, mat = real(path, *args, **kwargs)
        rows[os.path.basename(path).removesuffix(".vec")].append(len(lex))
        return lex, mat

    with mock.patch.object(cli, "load_embeddings", spy):
        for op in ops:
            rc, _, stdout = perfbench.run_op(cli, op, None)
            results[op.name] = (rc, stdout)
            if op.out_path:
                with open(op.out_path, encoding="utf-8") as fh:
                    results[os.path.basename(op.out_path)] = fh.read()
                os.remove(op.out_path)
    return results, rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    cli = perfbench.import_program()
    inst = CLI_SESSION.instances[0]
    dirs = perfbench.ensure_inputs(CLI_SESSION, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        equal = os.path.join(tmp, inst.name)
        os.makedirs(out)
        shutil.copytree(dirs[inst.name], equal)
        for name in ("src.vec", "trg.vec"):
            equal_float_copy(os.path.join(dirs[inst.name], name), os.path.join(equal, name))
        induce, *ops = session(CLI_SESSION, dirs, out)
        rc, _, _ = perfbench.run_op(cli, induce, None)
        if rc != 0:
            print("stored_space_check: induce failed")
            return 1
        stored, stored_rows = evaluations(cli, ops)
        # the same commands on the copies, against the model trained above
        full, full_rows = evaluations(cli, session(CLI_SESSION, {inst.name: equal}, out)[1:])

    problems = [f"{name} differs" for name in stored if stored[name] != full[name]]
    problems += [f"{op.name} exited {stored[op.name][0]}" for op in ops
                 if stored[op.name][0] != 0]
    parsed = sum(map(sum, stored_rows.values()))
    if parsed != 0:
        problems.append(f"the training files' loads parsed {stored_rows} rows, expected none")
    for side, rows in full_rows.items():
        if rows != [inst.n] * len(ops):
            problems.append(f"{side}-equal.vec loads returned {rows} rows, "
                            f"expected {inst.n} each")
    print(f"stored_space_check: seed {args.seed}, text rows parsed {stored_rows} "
          f"against {full_rows}: " + ("; ".join(problems) or "same"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
