"""Shared fixture builders for the test suite.

Everything here is deterministic given the rng passed in; tests construct
their own generators with fixed seeds so failures reproduce exactly.
"""

import numpy as np

from lexmatch.candidates import CandidateGraph
from lexmatch.embeddings import EmbeddingMatrix, Lexicon
from lexmatch.seeds import PROVENANCE_TSV, SeedDictionary


def random_orthogonal(d, rng):
    """Haar-ish random orthogonal matrix via QR with sign-fixed diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def unit_columns(x):
    return x / np.linalg.norm(x, axis=0, keepdims=True)


def random_unit_matrix(d, n, rng):
    return EmbeddingMatrix(d, unit_columns(rng.standard_normal((d, n))))


def make_lexicon(prefix, n):
    return Lexicon([f"{prefix}{i}" for i in range(n)])


def planted_instance(n, d, noise, n_seeds, rng):
    """Rotated-and-permuted copy of a random source space.

    T[:, i] is the unit-normalized image R @ S[:, perm[i]] plus Gaussian
    noise.  Returns a dict with both embedding sides, the true rotation,
    the permutation, its inverse (source j's true target), and a seed
    dictionary of n_seeds true pairs.
    """
    S = random_unit_matrix(d, n, rng)
    R = random_orthogonal(d, rng)
    perm = rng.permutation(n)
    T_raw = R @ S.data[:, perm]
    if noise > 0.0:
        T_raw = T_raw + noise * rng.standard_normal(T_raw.shape)
    T = EmbeddingMatrix(d, unit_columns(T_raw))
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    seed_src = rng.choice(n, size=n_seeds, replace=False)
    pairs = [(int(j), int(inv[j])) for j in sorted(seed_src)]
    seed = SeedDictionary(pairs=pairs, provenance=PROVENANCE_TSV, n_requested=len(pairs))
    return {
        "S": S,
        "T": T,
        "rotation": R,
        "perm": perm,
        "inv": inv,
        "seed": seed,
    }


def pairs(m):
    """A Matching's pairs as [(target, source), ...], in its (target, source) order."""
    return list(zip(m.trg.tolist(), m.src.tolist()))


def graph_edges(g):
    """A graph's edges as [(target, source, weight), ...], source-major in row order."""
    return [
        (int(i), j, float(w)) for j in range(g.n_src) for i, w in zip(*g.edges_of(j))
    ]


def graph_from_dense(W):
    """Dense (n_trg, n_src) weight matrix -> candidate graph with every edge."""
    n_trg, n_src = W.shape
    lists = [[(i, float(W[i, j])) for i in range(n_trg)] for j in range(n_src)]
    return CandidateGraph.from_lists(n_src, n_trg, lists)


def random_sparse_graph(n_src, n_trg, n_edges, rng, low=0.0, high=1.0):
    """Random duplicate-free graph with n_edges weights drawn from [low, high)."""
    cells = rng.choice(n_src * n_trg, size=min(n_edges, n_src * n_trg), replace=False)
    lists = [[] for _ in range(n_src)]
    for c in sorted(cells.tolist()):
        j, i = divmod(c, n_trg)
        lists[j].append((i, float(rng.uniform(low, high))))
    return CandidateGraph.from_lists(n_src, n_trg, lists)


def write_vec(path, words, data):
    """Write a plain-text embedding file: count/dim header then one row per word."""
    d, n = data.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {d}\n")
        for i, w in enumerate(words):
            fh.write(w + " " + " ".join(repr(float(v)) for v in data[:, i]) + "\n")
