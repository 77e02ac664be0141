"""Check that two checkouts of lexmatch write the same outputs in a perfbench session.

    python3 scripts/same_outputs.py A B --workload restricted-scale --seed 1

A and B are roots of two checkouts.  For each, a child process imports
lexmatch from that checkout's src/ and runs one round of the workload's
perfbench session through lexmatch.cli.main, with BLAS pinned to one thread
as perfbench pins it.  The inputs are perfbench's generated ones, made by
this checkout's perfbench/gen.py when missing, and both runs write to the
same output paths.  Operation by operation, the script then compares the
exit code, standard output, dictionary, hubness file, every array of the
model file by key (dtype, shape and bytes; a key that only one side wrote
is a difference) and the run report without its timings.  It prints every
difference and exits 1 if there is one, 0 if all outputs are the same.
"""

from __future__ import annotations

import os

# before numpy is imported, here and in the children that inherit it
os.environ.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def op_outputs(op, rc: int, stdout: str) -> dict:
    """What one operation wrote, as JSON-ready fields."""
    fields: dict = {"exit_code": rc, "stdout": stdout}
    for key, path in (("dictionary", op.dict_path), ("hubness", op.out_path)):
        if path and os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                fields[key] = fh.read()
    if op.model_path and os.path.isfile(op.model_path):
        with np.load(op.model_path, allow_pickle=False) as data:
            for name in data.files:
                a = data[name]
                fields[f"model {name}"] = [a.dtype.str, list(a.shape),
                                           hashlib.sha256(a.tobytes()).hexdigest()]
    if op.report_path and os.path.isfile(op.report_path):
        with open(op.report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        report.pop("timings", None)
        fields["report"] = report
    return fields


def run_child(checkout: str, workload: str, seed: int, out: str, result: str) -> None:
    """One round of the session against checkout's src/; fields go to result."""
    src = os.path.join(os.path.abspath(checkout), "src")
    sys.path.insert(0, src)
    sys.path.insert(0, PERFBENCH)
    import lexmatch.cli

    if not os.path.abspath(lexmatch.cli.__file__).startswith(src + os.sep):
        sys.exit(f"same_outputs: imported lexmatch from {lexmatch.cli.__file__}, not {src}")
    import run as perfbench
    from workloads import WORKLOADS, session

    w = WORKLOADS[workload]
    dirs = perfbench.ensure_inputs(w, seed)
    outputs = {}
    for op in session(w, dirs, out):
        rc, _, stdout = perfbench.run_op(lexmatch.cli, op, None)
        outputs[op.name] = op_outputs(op, rc, stdout)
    with open(result, "w", encoding="utf-8") as fh:
        json.dump(outputs, fh)


def differences(a: dict, b: dict) -> list[str]:
    problems = []
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            problems.append(f"{name}: run by only one checkout")
            continue
        for field in sorted(a[name].keys() | b[name].keys()):
            if field not in a[name] or field not in b[name]:
                problems.append(f"{name}: {field} written by only one checkout")
            elif a[name][field] != b[name][field]:
                problems.append(f"{name}: {field} differs")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        # the child side of one run: --child CHECKOUT WORKLOAD SEED OUT RESULT
        checkout, workload, seed, out, result = argv[1:]
        run_child(checkout, workload, int(seed), out, result)
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs=2, metavar="CHECKOUT")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="same-outputs-")
    try:
        out = os.path.join(tmp, "out")
        runs = []
        for i, checkout in enumerate(args.checkouts):
            os.makedirs(out)
            result = os.path.join(tmp, f"{i}.json")
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", checkout,
                 args.workload, str(args.seed), out, result],
                check=True,
            )
            with open(result, encoding="utf-8") as fh:
                runs.append(json.load(fh))
            shutil.rmtree(out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    problems = differences(*runs)
    for p in problems:
        print(f"same_outputs: {p}")
    n_fields = sum(len(f) for f in runs[0].values())
    verdict = "differ" if problems else "same"
    print(f"same_outputs: {args.workload} seed {args.seed}: {len(runs[0])} operations, "
          f"{n_fields} outputs, {len(problems)} differences: {verdict}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
