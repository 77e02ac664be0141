"""Workload definitions: the planted instances and the CLI session run on them.

Each workload is a list of instances (sizes and make-up of the generated
inputs) and a session: the `lexmatch` commands a user would type, in order.
One operation is one command together with the checks on its output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Instance:
    """Make-up of one generated input set (see gen.py)."""

    name: str
    stream: int  # second rng key, so instances of one seed are independent
    n: int  # words per side
    dim: int
    noise: float  # std of the Gaussian noise added to the rotated sources
    window: int  # permutation window; rank prefixes that are multiples stay closed
    restrict: int | None = None  # frequency prefix the seed and gold come from
    seed_kind: str = "tsv"  # "tsv" or "numerals"
    numeral_every: int = 0
    n_seed: int = 0
    n_gold: int = 1000
    n_query: int = 0
    oov_words: tuple[str, ...] = ()
    cluster_size: int = 1
    cluster_spread: float = 0.0
    src_offset: float = 0.0  # scale of a direction shared by all source vectors
    trg_offset: float = 0.0  # the same on the target side
    normalize: str = "unit"  # the --normalize scheme the session uses
    pin_conflict: bool = False
    fixed_seed: int | None = None  # inputs that do not follow --seed


@dataclass(frozen=True)
class Op:
    """One CLI command of a session and what its checks need to know."""

    name: str
    kind: str  # induce | evaluate | hubness | query
    instance: str
    argv: list[str]
    prior: str = "1:1"
    dict_path: str | None = None
    model_path: str | None = None
    report_path: str | None = None
    out_path: str | None = None
    stdin_path: str | None = None
    k: int = 0
    topn: int = 0
    # an operation kept although it fails on every run, for a fault in the
    # program; it must use inputs that do not depend on --seed
    known_fault: str | None = None


@dataclass(frozen=True)
class Workload:
    """A named session; why each was chosen is in BENCHMARK.json and README.md."""

    name: str
    threads: int
    instances: tuple[Instance, ...]
    # prior -> least share of the planted rotation's own P@1 that evaluate must reach
    p1_floor: dict = field(default_factory=dict)
    # if set, ||Omega - R||_F for the planted rotation R may exceed that of a
    # Procrustes fit to the true restricted pairs by at most this factor
    planted_map_slack: float | None = None


def instance_dir(root: str, inst: Instance, seed: int) -> str:
    tag = "fixed" if inst.fixed_seed is not None else str(seed)
    return os.path.join(root, f"{inst.name}-{tag}")


CLI_SESSION = Workload(
    name="cli-session",
    threads=1,
    instances=(
        Instance(
            name="medium", stream=1, n=5000, dim=300, noise=0.6, window=50,
            restrict=2500, seed_kind="numerals", numeral_every=5, n_gold=1000,
            n_query=200, oov_words=("zz-oov-1", "zz-oov-2"), src_offset=0.5,
            trg_offset=0.5, normalize="unit_center_unit",
        ),
    ),
    p1_floor={"1:1": 0.95},
    planted_map_slack=1.1,
)

# one thread: with two on a 2-vCPU host, a single other runnable thread on the
# machine stretches the parallel blocks by half and their spread with it
RESTRICTED_SCALE = Workload(
    name="restricted-scale",
    threads=1,
    instances=(
        Instance(
            name="large", stream=2, n=30000, dim=50, noise=0.15, window=100,
            restrict=6000, n_seed=300, n_gold=1000,
        ),
    ),
    p1_floor={"1:1": 0.95},
)

# several independent small instances per round: the matching's cost varies
# strongly from one random instance to the next, and their sum varies less
HUB_INSTANCES = 4

PRIORS_HUB = Workload(
    name="priors-hub",
    threads=1,
    instances=tuple(
        Instance(
            name=f"hub{i}", stream=10 + i, n=1000, dim=50, noise=0.3, window=1000,
            cluster_size=5, cluster_spread=0.3, trg_offset=0.7, n_seed=200, n_gold=500,
        )
        for i in range(HUB_INSTANCES)
    ) + (
        Instance(
            name="pinned", stream=4, n=800, dim=50, noise=0.3, window=800,
            cluster_size=5, cluster_spread=0.3, trg_offset=0.7, n_seed=150, n_gold=300,
            pin_conflict=True, fixed_seed=0,
        ),
    ),
    p1_floor={"1:1": 0.8, "1:2": 0.8, "2:2": 0.8, "1:many": 0.8},
)

WORKLOADS = {w.name: w for w in (CLI_SESSION, RESTRICTED_SCALE, PRIORS_HUB)}

PRIOR_TAGS = {"1:1": "p11", "1:2": "p12", "2:2": "p22", "1:many": "p1m"}


def _emb(d: str) -> list[str]:
    return ["--src-emb", os.path.join(d, "src.vec"), "--trg-emb", os.path.join(d, "trg.vec")]


def _induce(name, inst_name, d, out, seed_arg, prior, extra, known_fault=None) -> Op:
    dict_path = os.path.join(out, f"{name}.tsv")
    model_path = os.path.join(out, f"{name}.npz")
    report_path = os.path.join(out, f"{name}.report.json")
    argv = ["induce", *_emb(d), "--seed", seed_arg, "--prior", prior,
            "--out-dict", dict_path, "--model-out", model_path,
            "--report", report_path, "--quiet", *extra]
    return Op(name, "induce", inst_name, argv, prior=prior, dict_path=dict_path,
              model_path=model_path, report_path=report_path, known_fault=known_fault)


def _evaluate(name, inst_name, d, model_op: Op) -> Op:
    argv = ["evaluate", "--model", model_op.model_path, *_emb(d),
            "--eval-dict", os.path.join(d, "gold.tsv"), "--json"]
    return Op(name, "evaluate", inst_name, argv, prior=model_op.prior,
              model_path=model_op.model_path)


def _hubness(name, inst_name, d, out, model_op: Op, k: int) -> Op:
    out_path = os.path.join(out, f"{name}.tsv")
    argv = ["hubness", "--model", model_op.model_path, *_emb(d),
            "--queries", os.path.join(d, "gold.tsv"), "--k", str(k), "--out", out_path]
    return Op(name, "hubness", inst_name, argv, prior=model_op.prior,
              model_path=model_op.model_path, out_path=out_path, k=k)


def session(w: Workload, dirs: dict[str, str], out: str) -> list[Op]:
    """The commands of one round of workload `w`, in the order they run.

    dirs maps instance name to its input directory; outputs go under `out`.
    """
    threads = ["--threads", str(w.threads)]
    if w is CLI_SESSION:
        inst = w.instances[0]
        d = dirs[inst.name]
        induce = _induce("induce", inst.name, d, out, "numerals", "1:1",
                         ["--k", "3", "--rank-restrict", str(inst.restrict),
                          "--normalize", inst.normalize, *threads])
        query = Op("query", "query", inst.name,
                   ["query", "--model", induce.model_path, *_emb(d), "--stdin",
                    "--topn", "10"],
                   model_path=induce.model_path,
                   stdin_path=os.path.join(d, "queries.txt"), topn=10)
        return [induce, _evaluate("evaluate", inst.name, d, induce),
                _hubness("hubness", inst.name, d, out, induce, 20), query]
    if w is RESTRICTED_SCALE:
        inst = w.instances[0]
        d = dirs[inst.name]
        induce = _induce("induce", inst.name, d, out, "tsv:" + os.path.join(d, "seed.tsv"),
                         "1:1", ["--k", "3", "--rank-restrict", str(inst.restrict),
                                 "--max-iters", "2", *threads])
        return [induce, _evaluate("evaluate", inst.name, d, induce)]
    if w is PRIORS_HUB:
        ops: list[Op] = []
        for inst in w.instances[:HUB_INSTANCES]:
            d = dirs[inst.name]
            for prior, tag in PRIOR_TAGS.items():
                name = f"{tag}-{inst.name}"
                induce = _induce(f"induce-{name}", inst.name, d, out,
                                 "tsv:" + os.path.join(d, "seed.tsv"), prior,
                                 ["--k", "20", "--max-iters", "3", *threads])
                ops += [induce, _evaluate(f"evaluate-{name}", inst.name, d, induce),
                        _hubness(f"hubness-{name}", inst.name, d, out, induce, 20)]
        dp = dirs["pinned"]
        ops.append(_induce(
            "induce-pinned", "pinned", dp, out,
            "tsv:" + os.path.join(dp, "seed_conflict.tsv"), "1:1",
            ["--k", "20", "--max-iters", "2", "--pin-seed", *threads],
            known_fault="pin_seed breaks the 1:1 degree cap when the TSV seed maps "
                        "two sources to one target",
        ))
        return ops
    raise ValueError(f"no session for workload {w.name!r}")
