"""Edge weights and sparse candidate graph construction for the E-step.

An edge between target t_i and source s_j is scored by how much better the
mapped source explains the target than the background density does:

    w_ij = -1/2 * (||t_i - Omega s_j||^2 - ||t_i - mu||^2)

The E-step only needs, for each source, its k best-scoring targets, and
edges scoring below zero can never appear in an optimal partial matching,
so the graph is sparsified by exact blocked top-k followed by pruning.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from lexmatch.em import ModelParams
    from lexmatch.embeddings import EmbeddingMatrix

# scores per block of score_top_k; each of a block's temporaries (float64
# scores, int64 partition indices) stays within 32 MB per thread
BLOCK_ELEMENTS = 4_000_000

# scores per row slice that score_top_k offsets and selects in one go, 1 MiB
# of float64, so each slice is still in a core's L2 cache when the selection
# passes over it again
_SELECT_ELEMENTS = 131_072

# up to this k, k argmax passes over a block beat one argpartition
_ARGMAX_MAX_K = 4


@dataclass
class CandidateGraph:
    """Sparse bipartite graph in CSR-by-source layout.

    indptr has length n_src + 1; targets[indptr[j]:indptr[j+1]] are the
    candidate target ids of source j with weights in the parallel array,
    ordered by descending weight (ties by lower target id).
    """

    n_src: int
    n_trg: int
    indptr: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    @property
    def n_edges(self) -> int:
        return int(self.indptr[-1])

    def validate(self) -> None:
        if self.indptr.shape != (self.n_src + 1,) or self.indptr[0] != 0:
            raise ValueError("malformed indptr")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr not monotone")
        if self.targets.shape[0] != self.n_edges or self.weights.shape[0] != self.n_edges:
            raise ValueError("edge array lengths disagree with indptr")
        if self.n_edges:
            if self.targets.min() < 0 or self.targets.max() >= self.n_trg:
                raise ValueError("target index out of range")
            if not np.all(np.isfinite(self.weights)):
                raise ValueError("non-finite edge weight")
            if self.weights.min() < 0:
                raise ValueError("negative edge weight (pruning not applied?)")
        self.check_no_duplicates()

    def check_no_duplicates(self) -> None:
        """Raise naming the first repeated (source, target) edge in that order.

        Targets must lie in [0, n_trg): the key source * n_trg + target then
        sorts in (source, target) order and is unique per edge.
        """
        if self.n_edges == 0:
            return
        rows = np.repeat(
            np.arange(self.n_src, dtype=np.int64), np.diff(self.indptr)
        )
        key = np.sort(rows * self.n_trg + self.targets)
        dup = np.flatnonzero(key[1:] == key[:-1])
        if dup.size:
            r, t = divmod(int(key[dup[0]]), self.n_trg)
            raise ValueError(f"duplicate edge (target {t}, source {r})")


def edge_weight(t: np.ndarray, s: np.ndarray, params: "ModelParams") -> float | np.ndarray:
    """Score (target, source) pairs: -1/2 (||t - Omega s||^2 - ||t - mu||^2).

    t and s are one (d,) pair, scored as a float, or (d, m) columns of m
    pairs, scored as an (m,) array.  For unit vectors and mu = 0 this
    reduces to cos(t, Omega s) - 1/2.
    """
    # one unit-stride row per pair, so the stacked matrix-vector and dot
    # products give every pair the bits of the same pair scored alone
    trg, src = (
        np.ascontiguousarray(np.atleast_2d(np.asarray(v, dtype=np.float64).T))
        for v in (t, s)
    )
    diff = trg - np.matmul(params.omega, src[:, :, None])[:, :, 0]
    back = trg - params.mu
    dd, bb = (np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0] for v in (diff, back))
    w = -0.5 * (dd - bb)
    return float(w[0]) if np.ndim(t) == 1 else w


def _select_rows(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-row top-k of a finite (b, n) score block, k <= n.

    Rows come back by descending score with ties broken toward the lower
    column id, the order a brute-force lexsort((ids, -score)) gives.  The
    block may be overwritten.
    """
    b, n = scores.shape
    if k <= _ARGMAX_MAX_K:
        # argmax returns the first maximum, the lowest id among equal scores;
        # each pass knocks the column it took out of its row
        rows = np.arange(b)
        idx = np.empty((b, k), dtype=np.int64)
        val = np.empty((b, k))
        for j in range(k):
            col = np.argmax(scores, axis=1)
            idx[:, j] = col
            val[:, j] = scores[rows, col]
            scores[rows, col] = -np.inf
        return idx, val
    # one more than k where there is one, so a tie across the k-th slot shows
    # as equal values
    m = min(k + 1, n)
    idx = np.argpartition(scores, n - m, axis=1)[:, n - m:]
    val = np.take_along_axis(scores, idx, axis=1)
    order = np.lexsort((idx, -val), axis=1)
    idx = np.take_along_axis(idx, order, axis=1)
    val = np.take_along_axis(val, order, axis=1)
    if m > k:
        # argpartition splits ties arbitrarily: where the (k+1)-th value equals
        # the k-th, rank every column reaching it by (-score, id)
        for r in np.flatnonzero(val[:, k] == val[:, k - 1]):
            row = scores[r]
            cand = np.flatnonzero(row >= val[r, k - 1])
            cand = cand[np.lexsort((cand, -row[cand]))]
            idx[r, :k] = cand[:k]
            val[r, :k] = row[cand[:k]]
    return idx[:, :k], val[:, :k]


def score_top_k(
    Q: np.ndarray,
    C: np.ndarray,
    k: int,
    c_offset: np.ndarray | None = None,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k columns of C for every column of Q under a dot-product score.

    The score of candidate c for query q is Q[:, q] . C[:, c] + c_offset[c].
    Returns (idx, val) of shape (n_q, min(k, n_c)): the selected candidates
    and exactly their scores, each row by descending score with ties broken
    toward the lower candidate id.  A per-query offset does not change a
    row's ranking; callers add their own to val.

    Queries are scored in row-contiguous (queries, candidates) blocks of at
    most BLOCK_ELEMENTS scores, so the selection runs along the contiguous
    axis.  Blocks are fixed spans of query ids assembled in order, so the
    result is the same for any thread count.  Each scored block is offset
    and selected in row slices of at most _SELECT_ELEMENTS scores, while a
    slice is still in cache; both steps work row by row, so the slicing
    does not change the result.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    nq, nc = Q.shape[1], C.shape[1]
    kk = min(k, nc)
    if nq == 0 or kk == 0:
        return np.zeros((nq, kk), dtype=np.int64), np.zeros((nq, kk))
    rows = max(1, BLOCK_ELEMENTS // nc)
    slice_rows = max(1, _SELECT_ELEMENTS // nc)
    spans = [(lo, min(lo + rows, nq)) for lo in range(0, nq, rows)]
    # each thread scores all its blocks into one buffer: a new block per span
    # would be mapped afresh and page-faulted in, up to 32 MB every time
    buffers = threading.local()

    def run_span(span: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = span
        if not hasattr(buffers, "scores"):
            buffers.scores = np.empty((min(rows, nq), nc), dtype=np.result_type(Q, C))
        scores = np.matmul(Q[:, lo:hi].T, C, out=buffers.scores[: hi - lo])
        parts = []
        for a in range(0, hi - lo, slice_rows):
            part = scores[a : a + slice_rows]
            if c_offset is not None:
                part += c_offset
            parts.append(_select_rows(part, kk))
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_span, spans))
    else:
        results = [run_span(sp) for sp in spans]
    return (
        np.concatenate([r[0] for r in results]),
        np.concatenate([r[1] for r in results]),
    )


def weight_terms(
    S: "EmbeddingMatrix",
    T: "EmbeddingMatrix",
    params: "ModelParams",
    restrict: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The edge weight as a dot product plus per-side offsets.

    Returns (mapped, targets, src_offset, trg_offset) over the frequency
    prefixes restrict=(n_src_top, n_trg_top) selects (everything when None),
    from the expansion

        w_ij = t_i . Omega s_j  - 1/2 ||t_i||^2 + 1/2 ||t_i - mu||^2 - 1/2 ||s_j||^2

    (using ||Omega s|| = ||s||), which agrees with edge_weight to float64
    rounding: mapped[:, j] = Omega s_j and the offsets hold the last three terms.
    """
    if S.dim != T.dim:
        raise ValueError(f"dimension mismatch: source {S.dim}, target {T.dim}")
    ns, nt = S.n_words, T.n_words
    if restrict is not None:
        ns, nt = restrict
        if not (1 <= ns <= S.n_words and 1 <= nt <= T.n_words):
            raise ValueError(
                f"restriction ({ns}, {nt}) exceeds vocabulary sizes "
                f"({S.n_words}, {T.n_words})"
            )
    Ssub = S.data[:, :ns]
    Tsub = T.data[:, :nt]
    back = Tsub - params.mu[:, None]
    trg_offset = -0.5 * np.einsum("ij,ij->j", Tsub, Tsub) + 0.5 * np.einsum(
        "ij,ij->j", back, back
    )
    src_offset = -0.5 * np.einsum("ij,ij->j", Ssub, Ssub)
    return params.omega @ Ssub, Tsub, src_offset, trg_offset


def build_candidates(
    S: "EmbeddingMatrix",
    T: "EmbeddingMatrix",
    params: "ModelParams",
    k: int,
    restrict: tuple[int, int] | None = None,
    threads: int = 1,
) -> CandidateGraph:
    """Top-k candidate targets per source under the current model, pruned at 0.

    restrict=(n_src_top, n_trg_top) limits both sides to their frequency
    prefix; sources outside it get empty candidate lists and targets outside
    it never appear.  Sources are the queries of score_top_k over the
    weight_terms expansion, so the result is the same for any thread count.
    """
    mapped, Tsub, src_offset, trg_offset = weight_terms(S, T, params, restrict)
    ns = mapped.shape[1]
    idx, val = score_top_k(mapped, Tsub, k, c_offset=trg_offset, threads=threads)
    w = val + src_offset[:, None]
    keep = w >= 0.0
    indptr = np.zeros(S.n_words + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:ns + 1])
    indptr[ns + 1:] = indptr[ns]
    return CandidateGraph(S.n_words, T.n_words, indptr, idx[keep], w[keep])
