"""lexmatch benchmark: whole CLI sessions on generated inputs, timed and checked.

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from ./src.  One
round runs every command of the workload's session through
lexmatch.cli.main, the function behind the `lexmatch` command; rounds repeat
until --seconds have passed, and each metric is the median over rounds.
The last line of standard output is one JSON object: whether every output
passed its checks, how many operations (a command with its checks) were
attempted and how many failed, and the metrics, end to end with --trace 0
and per layer with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP to one thread before numpy is first imported; the
# program's own --threads is the only parallelism left
BLAS_PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, ".inputs")
KEEP_SEEDS = 3  # generated instances kept per instance name
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
from tracing import LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Op, Workload, instance_dir, session  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "iter_s": "s",
    "eval_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """lexmatch.cli from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "lexmatch", "cli.py")):
        sys.exit(f"perfbench: no program at {SRC}/lexmatch; run from a checkout of the repo")
    sys.path.insert(0, SRC)
    import lexmatch.cli

    if not os.path.abspath(lexmatch.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported lexmatch from {lexmatch.cli.__file__}, not {SRC}")
    return lexmatch.cli


def ensure_inputs(w: Workload, seed: int) -> dict[str, str]:
    """Input directory per instance, generated by a child process if missing."""
    dirs = {}
    for inst in w.instances:
        d = instance_dir(CACHE, inst, seed)
        if not os.path.isfile(os.path.join(d, "DONE")):
            subprocess.run(
                [sys.executable, os.path.join(HERE, "gen.py"), "--workload", w.name,
                 "--seed", str(seed), "--out", CACHE, "--instance", inst.name],
                check=True, timeout=120,
            )
        os.utime(os.path.join(d, "DONE"))
        dirs[inst.name] = d
        # keep the cache small: drop the least recently used seeds
        mine = [os.path.join(CACHE, e) for e in os.listdir(CACHE)
                if e.startswith(inst.name + "-")]
        mine.sort(key=lambda p: os.path.getmtime(os.path.join(p, "DONE"))
                  if os.path.isfile(os.path.join(p, "DONE")) else 0.0)
        for old in mine[:-KEEP_SEEDS]:
            if old != d:
                shutil.rmtree(old, ignore_errors=True)
    return dirs


def run_op(cli, op: Op, tracer: Tracer | None) -> tuple[int, float, str]:
    """Run one command in-process: exit code, wall seconds, captured stdout."""
    stdin = None
    if op.stdin_path:
        with open(op.stdin_path, encoding="utf-8") as fh:
            stdin = io.StringIO(fh.read())
    out = io.StringIO()
    saved_stdin = sys.stdin
    span = None
    try:
        if stdin is not None:
            sys.stdin = stdin
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            if tracer is not None:
                span = tracer.begin(f"cli.{op.kind}")
            try:
                rc = cli.main(op.argv)
            finally:
                if span is not None:
                    tracer.end(span)
            wall = time.perf_counter() - t0
    finally:
        sys.stdin = saved_stdin
    return rc, wall, out.getvalue()


class Session:
    """Runs rounds of one workload and checks every operation's output."""

    def __init__(self, cli, w: Workload, seed: int, dirs: dict[str, str], out: str):
        self.cli, self.w = cli, w
        self.ops = session(w, dirs, out)
        self.seed = seed
        self._instances = {inst.name: inst for inst in w.instances}
        # built when first needed and dropped after each round's checks, so it
        # is never resident while the program runs and adds nothing to peak RSS
        self._truth: dict[str, checks.Truth] = {}
        self.reference: dict[str, tuple] = {}  # op name -> outputs of its first check
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.faults_seen: set[str] = set()
        self.facts: dict[str, float] = {}  # reference figures from the first round

    def round(self, tracer: Tracer | None) -> dict:
        """One session; returns the end-to-end figures and each op's result."""
        results = []
        t0 = time.perf_counter()
        for op in self.ops:
            results.append(run_op(self.cli, op, tracer))
        wall = time.perf_counter() - t0
        setup = train = evals = 0.0
        iterations = 0
        reports = []
        for op, (rc, seconds, stdout) in zip(self.ops, results):
            self.attempted += 1
            report = self.check(op, rc, stdout)
            if op.kind != "induce":
                evals += seconds
            elif report is not None:
                setup += report["timings"]["load_s"]
                train += report["timings"]["train_s"]
                iterations += report["result"]["iterations"]
            reports.append(report)
        self._truth.clear()
        train_gap = 0.0
        if tracer is not None:
            # the traced run_em span against the report's own train_s
            runs = iter(s for s in tracer.spans if s.name == "em.run")
            for op, report in zip(self.ops, reports):
                if op.kind == "induce":
                    span = next(runs)
                    if report is not None:
                        train_gap += abs(span.duration - report["timings"]["train_s"])
        return {
            "setup_s": setup,
            "train_s": train,
            "iter_s": train / iterations if iterations else 0.0,
            "eval_s": evals,
            "wall_s": wall,
            "train_gap_s": train_gap,
        }

    def outputs(self, op: Op, stdout: str, report: dict | None) -> tuple:
        """What an op wrote, for comparing a later round with the first."""
        parts: list = [stdout]
        for path in (op.dict_path, op.out_path):
            if path:
                with open(path, encoding="utf-8") as fh:
                    parts.append(fh.read())
        if op.kind == "induce":
            with np.load(op.model_path, allow_pickle=False) as data:
                parts += [data["omega"].tobytes(), data["mu"].tobytes()]
            parts.append(json.dumps(report["trace"]))
        return tuple(parts)

    def check(self, op: Op, rc: int, stdout: str) -> dict | None:
        """Check one op's output; counts failures and records problems."""
        if rc != 0:
            self.failed += 1
            print(f"perfbench: {op.name} exited with {rc}", file=sys.stderr)
            return None
        report = None
        try:
            if op.kind == "induce":
                with open(op.report_path, encoding="utf-8") as fh:
                    report = checks.check_report(fh.read())
            outputs = self.outputs(op, stdout, report)
            if op.known_fault is not None:
                # cheap, and this is where the fault shows: check it every round
                self.check_first(op, stdout, report)
            elif op.name in self.reference:
                # a rerun on the same inputs must reproduce the checked outputs
                if outputs != self.reference[op.name]:
                    raise checks.CheckError("output differs from the first round's")
            else:
                self.check_first(op, stdout, report)
            self.reference[op.name] = outputs
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            # a missing or malformed output file fails its check like a wrong one
            if op.known_fault is not None:
                self.failed += 1
                if op.name not in self.faults_seen:
                    print(f"perfbench: {op.name} fails as expected ({op.known_fault}): {exc}",
                          file=sys.stderr)
                    self.faults_seen.add(op.name)
            else:
                self.problems.append(f"{op.name}: {exc}")
                print(f"perfbench: {op.name}: {exc}", file=sys.stderr)
        return report

    def truth(self, name: str) -> checks.Truth:
        if name not in self._truth:
            self._truth[name] = checks.Truth(self._instances[name], self.seed)
        return self._truth[name]

    def check_first(self, op: Op, stdout: str, report: dict | None) -> None:
        truth = self.truth(op.instance)
        omega = checks.load_model(op.model_path)
        if op.kind == "induce":
            with open(op.dict_path, encoding="utf-8") as fh:
                n = checks.check_dictionary(fh.read(), truth, op.prior)
            self.facts[f"{op.name}.pairs"] = n
            self.facts[f"{op.name}.iterations"] = report["result"]["iterations"]
            if self.w.planted_map_slack is not None:
                (self.facts[f"{op.name}.map_error"],
                 self.facts[f"{op.name}.true_pairs_map_error"]) = checks.check_planted_map(
                    omega, truth, self.w.planted_map_slack)
        elif op.kind == "evaluate":
            (self.facts[f"{op.name}.p_at_1"],
             self.facts[f"{op.name}.planted_p_at_1"]) = checks.check_evaluate(
                stdout, omega, truth, self.w.p1_floor[op.prior])
        elif op.kind == "hubness":
            with open(op.out_path, encoding="utf-8") as fh:
                self.facts[f"{op.name}.max_n{op.k}"] = checks.check_hubness(
                    fh.read(), omega, truth, op.k)
        elif op.kind == "query":
            checks.check_query(stdout, omega, truth, op.topn)


def run_record(w: Workload, seed: int, s: Session, rounds: int, trace: bool) -> dict:
    """Machine, library and run facts recorded next to every result."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "lexmatch")):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "threads": w.threads,
        "rounds": rounds,
        "attempted": s.attempted,
        "failed": s.failed,
        "facts": s.facts,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run instead of end-to-end ones")
    args = ap.parse_args(argv)

    cli = import_program()
    w = WORKLOADS[args.workload]
    os.makedirs(CACHE, exist_ok=True)
    dirs = ensure_inputs(w, args.seed)
    out = tempfile.mkdtemp(prefix="run-", dir=CACHE)
    try:
        s = Session(cli, w, args.seed, dirs, out)
        plain: list[dict] = []
        traced: list[tuple[dict, dict]] = []
        start = time.perf_counter()
        # whole rounds only, so every run attempts the same mix of operations;
        # with --trace 1 untraced and traced rounds alternate
        while time.perf_counter() - start < args.seconds or len(plain) + len(traced) < 2:
            gc.collect()
            if args.trace and len(plain) > len(traced):
                tracer = Tracer()
                tracer.install()
                try:
                    figures = s.round(tracer)
                finally:
                    tracer.uninstall()
                traced.append((figures, layer_metrics(tracer.spans)))
                last_spans = tracer.spans
            else:
                plain.append(s.round(None))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(out, ignore_errors=True)

    def median(rows, key):
        return statistics.median(r[key] for r in rows)

    if args.trace:
        metrics = {k: median([m for _, m in traced], k) for k in LAYER_UNITS
                   if not k.startswith("trace.")}
        metrics["trace.overhead_s"] = (median([f for f, _ in traced], "wall_s")
                                       - median(plain, "wall_s"))
        metrics["trace.train_gap_s"] = median([f for f, _ in traced], "train_gap_s")
        units = LAYER_UNITS
        with open(os.path.join(CACHE, f"spans-{w.name}.json"), "w", encoding="utf-8") as fh:
            json.dump([sp.as_dict() for sp in last_spans], fh)
    else:
        metrics = {k: median(plain, k) for k in END_TO_END_UNITS if k != "peak_rss_mb"}
        metrics["peak_rss_mb"] = peak_mb
        units = END_TO_END_UNITS

    record = run_record(w, args.seed, s, len(plain) + len(traced), bool(args.trace))
    record["metrics"] = metrics
    with open(os.path.join(CACHE, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print("run-record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not s.problems,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
