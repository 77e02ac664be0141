"""Round-trip demo on a synthetic planted-rotation instance.

Generates two embedding files whose vocabularies share numeral strings,
trains through the command-line interface, and scores the induced
dictionary against the planted permutation.

    python3 scripts/planted_demo.py --out-dir /tmp/demo --n 500 --dim 40
"""

import argparse
import os
import sys

import numpy as np

from lexmatch.cli import main as cli_main
from lexmatch.embeddings import EmbeddingMatrix, Lexicon, save_embeddings


def unit_columns(x):
    return x / np.linalg.norm(x, axis=0, keepdims=True)


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def build(args):
    rng = np.random.default_rng(args.rng_seed)
    n, d, n_seed = args.n, args.dim, args.n_seeds
    S = unit_columns(rng.standard_normal((d, n)))
    R = random_orthogonal(d, rng)
    # keep the numeral-named seed words inside any later vocabulary cut
    perm = np.concatenate([np.arange(n_seed), n_seed + rng.permutation(n - n_seed)])
    T = unit_columns(R @ S[:, perm] + args.noise * rng.standard_normal((d, n)))
    src_words = [str(1990 + j) if j < n_seed else f"s{j}" for j in range(n)]
    trg_words = [
        str(1990 + perm[i]) if perm[i] < n_seed else f"t{perm[i]}" for i in range(n)
    ]
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, words, data in (("src.vec", src_words, S), ("trg.vec", trg_words, T)):
        path = os.path.join(args.out_dir, name)
        save_embeddings(path, Lexicon(words), EmbeddingMatrix(d, data))
    with open(os.path.join(args.out_dir, "gold.tsv"), "w", encoding="utf-8") as fh:
        for j, w in enumerate(src_words):
            fh.write(f"{w}\t{trg_words[inv[j]]}\n")


def run(args):
    out = args.out_dir
    rc = cli_main([
        "induce",
        "--src-emb", os.path.join(out, "src.vec"),
        "--trg-emb", os.path.join(out, "trg.vec"),
        "--seed", "numerals",
        "--prior", args.prior,
        "--out-dict", os.path.join(out, "dict.tsv"),
        "--model-out", os.path.join(out, "model.npz"),
    ])
    if rc != 0:
        return rc
    return cli_main([
        "evaluate",
        "--model", os.path.join(out, "model.npz"),
        "--src-emb", os.path.join(out, "src.vec"),
        "--trg-emb", os.path.join(out, "trg.vec"),
        "--eval-dict", os.path.join(out, "gold.tsv"),
    ])


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--dim", type=int, default=40)
    ap.add_argument("--noise", type=float, default=0.01)
    ap.add_argument("--n-seeds", type=int, default=25)
    ap.add_argument("--prior", default="1:1", choices=["1:1", "1:2", "2:2", "1:many"])
    ap.add_argument("--rng-seed", type=int, default=42)
    return ap.parse_args()


if __name__ == "__main__":
    ns = parse_args()
    build(ns)
    sys.exit(run(ns))
