"""Seeded input generator for the lexmatch benchmark.

Writes the planted instances of a workload.  Each gets two word2vec text
files, a seed dictionary (numerals or TSV), a gold dictionary and, for the
CLI session, a batch of query words.  The planted rotation and permutation
stay with the benchmark: its checks rebuild them from the seed with
build(), and the program under test sees the text files alone.

Regenerate the inputs of one workload by hand with

    python3 perfbench/gen.py --workload cli-session --seed 1 --out /tmp/inputs

The same workload and seed always give byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS, Instance, instance_dir  # noqa: E402

# vectors are written with six decimals; values are kept as q / 1e6 for an
# integer q, which is exactly the float64 the text parses back to
_SCALE = 1e6


def random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def windowed_permutation(n: int, window: int, rng: np.random.Generator) -> np.ndarray:
    """perm[j] = target position of source j, shuffled within aligned windows.

    Every frequency prefix whose length is a multiple of `window` is closed
    under the permutation, so a rank restriction keeps each source's true
    translation inside the restricted target set.
    """
    perm = np.empty(n, dtype=np.int64)
    for lo in range(0, n, window):
        hi = min(lo + window, n)
        perm[lo:hi] = lo + rng.permutation(hi - lo)
    return perm


def quantize(x: np.ndarray) -> np.ndarray:
    return np.rint(x * _SCALE) / _SCALE


def planted(inst: Instance, rng: np.random.Generator) -> dict:
    """Source vectors, their rotated noisy images as targets, and the truth."""
    n, d = inst.n, inst.dim
    if inst.cluster_size > 1:
        # cluster-mates sit close together, so they compete for the same
        # targets; clusters are all of one size, spread over the frequency ranks
        n_clusters = -(-n // inst.cluster_size)
        centers = rng.standard_normal((d, n_clusters))
        members = rng.permutation(np.repeat(np.arange(n_clusters), inst.cluster_size)[:n])
        S = centers[:, members] + inst.cluster_spread * rng.standard_normal((d, n))
    else:
        S = rng.standard_normal((d, n))
    S += inst.src_offset * rng.standard_normal(d)[:, None]
    R = random_orthogonal(d, rng)
    perm = windowed_permutation(n, inst.window, rng)
    T = np.empty((d, n))
    T[:, perm] = R @ S + inst.noise * rng.standard_normal((d, n))
    T += inst.trg_offset * rng.standard_normal(d)[:, None]
    return {"S": quantize(S), "T": quantize(T), "R": R, "perm": perm}


def write_vec(path: str, words: list[str], data: np.ndarray) -> None:
    d = data.shape[0]
    fmt = " ".join(["%.6f"] * d)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {d}\n")
        for w, row in zip(words, data.T.tolist()):
            fh.write(w + " " + fmt % tuple(row) + "\n")
        # on disk before any timer starts, so no write-back overlaps a run
        fh.flush()
        os.fsync(fh.fileno())


def write_pairs(path: str, pairs: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s, t in pairs:
            fh.write(f"{s}\t{t}\n")


def build(inst: Instance, seed: int) -> dict:
    """Everything about the instance for `seed`, files and truth alike.

    The checks call this too: the planted rotation, permutation and exact
    vector values never pass through the program under test.
    """
    rng = np.random.default_rng([seed if inst.fixed_seed is None else inst.fixed_seed,
                                 inst.stream])
    p = planted(inst, rng)
    n, top = inst.n, inst.restrict or inst.n
    perm = p["perm"]

    src_words = [f"s{j}" for j in range(n)]
    trg_words = [f"t{i}" for i in range(n)]
    prefix = np.arange(top)
    if inst.seed_kind == "numerals":
        # every numeral_every-th prefix word is a numeral shared by both sides
        seed_src = prefix[:: inst.numeral_every]
        numbers = rng.choice(10 * n, size=seed_src.size, replace=False)
        for j, num in zip(seed_src.tolist(), numbers.tolist()):
            src_words[j] = trg_words[perm[j]] = str(num)
    else:
        seed_src = np.sort(rng.choice(prefix, size=inst.n_seed, replace=False))
    gold_src = np.sort(rng.choice(np.setdiff1d(prefix, seed_src), size=inst.n_gold,
                                  replace=False))
    query_src = rng.choice(gold_src, size=inst.n_query, replace=False)
    return {
        **p,
        "src_words": src_words,
        "trg_words": trg_words,
        "seed_src": seed_src,
        "gold_src": gold_src,
        "queries": [src_words[j] for j in query_src.tolist()] + list(inst.oov_words),
    }


def generate(inst: Instance, seed: int, out: str) -> None:
    """Write the instance for `seed` into directory `out` (created if needed)."""
    os.makedirs(out, exist_ok=True)
    b = build(inst, seed)
    src_words, trg_words, perm = b["src_words"], b["trg_words"], b["perm"]

    def pairs(src_ids) -> list[tuple[str, str]]:
        return [(src_words[j], trg_words[perm[j]]) for j in src_ids.tolist()]

    if inst.seed_kind == "tsv":
        write_pairs(os.path.join(out, "seed.tsv"), pairs(b["seed_src"]))
    write_pairs(os.path.join(out, "gold.tsv"), pairs(b["gold_src"]))
    if inst.n_query:
        with open(os.path.join(out, "queries.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(b["queries"]) + "\n")
    if inst.pin_conflict:
        # the seed plus a second source for the first seed target: a 1:1
        # run that pins the seed cannot honour both
        a, c = b["seed_src"][:2].tolist()
        write_pairs(
            os.path.join(out, "seed_conflict.tsv"),
            pairs(b["seed_src"]) + [(src_words[c], trg_words[perm[a]])],
        )
    write_vec(os.path.join(out, "src.vec"), src_words, b["S"])
    write_vec(os.path.join(out, "trg.vec"), trg_words, b["T"])
    # written last: its presence marks a complete instance
    with open(os.path.join(out, "DONE"), "w", encoding="utf-8") as fh:
        fh.write(f"{inst.name} {seed}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--instance", default=None,
                    help="one instance of the workload (default: all of them)")
    args = ap.parse_args(argv)
    for inst in WORKLOADS[args.workload].instances:
        if args.instance in (None, inst.name):
            generate(inst, args.seed, instance_dir(args.out, inst, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
