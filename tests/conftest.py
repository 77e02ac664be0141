"""Shared fixture builders for the test suite.

Everything here is deterministic given the rng passed in; tests construct
their own generators with fixed seeds so failures reproduce exactly.
"""

import os
import sys

import numpy as np

from lexmatch.candidates import CandidateGraph
from lexmatch.embeddings import EmbeddingMatrix, Lexicon
from lexmatch.seeds import PROVENANCE_TSV, SeedDictionary

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts"))
from planted_demo import build, random_orthogonal, unit_columns  # noqa: E402


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


def edges_of(g, j):
    """Source j's candidate targets and weights, in adjacency order."""
    lo, hi = g.indptr[j], g.indptr[j + 1]
    return g.targets[lo:hi], g.weights[lo:hi]


def graph_edges(g):
    """A graph's edges as [(target, source, weight), ...], source-major in row order."""
    return [
        (int(i), j, float(w)) for j in range(g.n_src) for i, w in zip(*edges_of(g, j))
    ]


def graph(n_src, n_trg, lists):
    """Candidate graph from per-source [(target, weight), ...] lists, in list order."""
    assert len(lists) == n_src, f"expected {n_src} adjacency lists, got {len(lists)}"
    indptr = np.zeros(n_src + 1, dtype=np.int64)
    np.cumsum(np.array([len(l) for l in lists], dtype=np.int64), out=indptr[1:])
    targets = np.array([i for l in lists for (i, _) in l], dtype=np.int64)
    weights = np.array([w for l in lists for (_, w) in l], dtype=np.float64)
    return CandidateGraph(n_src, n_trg, indptr, targets, weights)


def graph_from_dense(W):
    """Dense (n_trg, n_src) weight matrix -> candidate graph with every edge."""
    n_trg, n_src = W.shape
    lists = [[(i, float(W[i, j])) for i in range(n_trg)] for j in range(n_src)]
    return graph(n_src, n_trg, lists)


def random_sparse_graph(n_src, n_trg, n_edges, rng, low=0.0, high=1.0):
    """Random duplicate-free graph with n_edges weights drawn from [low, high)."""
    cells = rng.choice(n_src * n_trg, size=min(n_edges, n_src * n_trg), replace=False)
    lists = [[] for _ in range(n_src)]
    for c in sorted(cells.tolist()):
        j, i = divmod(c, n_trg)
        lists[j].append((i, float(rng.uniform(low, high))))
    return graph(n_src, n_trg, lists)


def tie_heavy_graph(seed, max_side):
    """Random graph with weights in {0, 0.5, 1, 1.5}; about a quarter of sources edgeless.

    A zero-weight edge ties with its source's stay-unmatched option, and
    half-integer sums are exact, so every tie-break of the solver shows in
    which pairs it returns.
    """
    rng = np.random.default_rng(seed)
    n_src, n_trg = rng.integers(1, max_side + 1, size=2).tolist()
    lists = []
    for _ in range(n_src):
        deg = 0 if rng.random() < 0.25 else int(rng.integers(1, n_trg + 1))
        t = rng.choice(n_trg, size=deg, replace=False).tolist()
        lists.append(list(zip(t, (rng.integers(0, 4, size=deg) / 2).tolist())))
    return graph(n_src, n_trg, lists)


def write_planted_numerals(directory):
    """Noiseless rotated permutation of 40 words with 8 shared numerals, on disk.

    Writes src.vec, trg.vec and gold.tsv (source word, true target) into
    `directory`.  The numeral words sit at ids 0..7 on both sides so they
    survive any vocabulary truncation a test applies.  Returns the paths,
    both word lists and inv (source j's true target id).
    """
    src_words, trg_words, inv = build(directory, n=40, d=8, n_seed=8, noise=0.0, rng_seed=42)
    return {
        "src": str(directory / "src.vec"),
        "trg": str(directory / "trg.vec"),
        "gold": str(directory / "gold.tsv"),
        "src_words": src_words,
        "trg_words": trg_words,
        "inv": inv,
    }
