"""Maximum-weight bipartite matching solvers.

Three routes to the same optimum, used to cross-check each other:

* solve_sparse_lap: successive shortest augmenting paths with dual
  potentials (Dijkstra on the sparse adjacency), the production solver.
  Partial matchings come out of a rectangular formulation where every
  source also owns a private zero-cost "stay unmatched" column, and
  maximization is turned into minimization by negating weights.
* hungarian_dense: dense oracle delegating to scipy's assignment solver.
* brute_force_matching: exhaustive enumeration for tiny instances.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from lexmatch.candidates import CandidateGraph


@dataclass(eq=False)
class Matching:
    """Pair set between targets and sources; the result of every E-step.

    trg, src and weight are parallel arrays, sorted here by (target,
    source).  total_weight is math.fsum over the weights, so equal pair
    sets always report bit-equal totals.  Each prior bounds vertex degrees
    differently; assert_degrees makes the bound in force explicit.
    """

    n_trg: int
    n_src: int
    trg: np.ndarray
    src: np.ndarray
    weight: np.ndarray
    total_weight: float = field(init=False)

    def __post_init__(self) -> None:
        trg = np.asarray(self.trg, dtype=np.int64)
        src = np.asarray(self.src, dtype=np.int64)
        weight = np.asarray(self.weight, dtype=np.float64)
        if trg.ndim != 1 or trg.shape != src.shape or trg.shape != weight.shape:
            raise ValueError(
                f"pair arrays differ in shape: {trg.shape}, {src.shape}, {weight.shape}"
            )
        order = np.lexsort((src, trg))
        self.trg, self.src, self.weight = trg[order], src[order], weight[order]
        self.total_weight = math.fsum(self.weight.tolist())

    def __len__(self) -> int:
        return self.trg.size

    def assert_degrees(self, trg_cap: int | None = 1, src_cap: int | None = 1) -> None:
        """Raise ValueError for an id out of range or a vertex over its cap.

        A cap of None leaves that side's degrees unbounded.
        """
        for side, ids, n, cap in (
            ("target", self.trg, self.n_trg, trg_cap),
            ("source", self.src, self.n_src, src_cap),
        ):
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise ValueError(f"{side} id out of range [0, {n})")
            if cap is not None:
                over = np.flatnonzero(np.bincount(ids, minlength=n) > cap)
                if over.size:
                    raise ValueError(f"{side} {over[0]} exceeds degree cap {cap}")

    def unmatched_targets(self) -> np.ndarray:
        mask = np.ones(self.n_trg, dtype=bool)
        mask[self.trg] = False
        return np.flatnonzero(mask)


def hungarian_dense(weights: np.ndarray) -> Matching:
    """Maximum-weight perfect matching of a square dense matrix; test oracle.

    weights[i, j] scores pairing target i with source j.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight matrix contains non-finite entries")
    rows, cols = linear_sum_assignment(w, maximize=True)
    m = Matching(w.shape[0], w.shape[0], rows, cols, w[rows, cols])
    m.assert_degrees(1, 1)
    return m


def solve_sparse_lap(g: CandidateGraph) -> Matching:
    """Maximum-weight partial matching on a sparse candidate graph.

    Successive shortest augmenting paths over columns = real targets plus
    one dummy column per source (the source's zero-cost unmatched option),
    with dual potentials keeping reduced costs nonnegative so plain
    Dijkstra applies.  Sources are processed in index order and heap keys
    are (distance, column), so ties always resolve toward lower indices
    and runs are bit-for-bit reproducible.

    Most searches end at the first pop.  A source's own columns are
    distinct, so that pop is their smallest (distance, column) key; when its
    column is free the source takes it without a heap, making the updates a
    full search makes there, so results do not change.
    """
    g.check_no_duplicates()
    if g.n_edges and g.weights.min() < 0:
        raise ValueError("negative edge weight; prune candidates first")

    ns, nt = g.n_src, g.n_trg
    n_cols = nt + ns  # col nt + j is the dummy column of source j
    bounds = g.indptr.tolist()
    all_targets = g.targets.tolist()
    all_costs = (-g.weights).tolist()
    # a source without edges can only take its own dummy column, which no
    # other source reaches, so it is never searched nor expanded
    sources = np.flatnonzero(np.diff(g.indptr)).tolist()
    row_cols: list[list[int]] = [[]] * ns
    row_costs: list[list[float]] = [[]] * ns
    for j in sources:  # each row ends with its dummy column at cost 0
        row_cols[j] = all_targets[bounds[j]:bounds[j + 1]] + [nt + j]
        row_costs[j] = all_costs[bounds[j]:bounds[j + 1]] + [0.0]

    v = [0.0] * n_cols
    u = [0.0] * ns
    match_col = [-1] * n_cols  # col -> row
    row_col = [-1] * ns  # row -> col
    # per-search state, back to these values once each search ends
    best = [math.inf] * n_cols
    done = [False] * n_cols
    pred = [-1] * n_cols  # read only along the path just searched

    for j0 in sources:
        u0 = min([c - v[i] for i, c in zip(row_cols[j0], row_costs[j0])])
        heap = [(c - u0 - v[i], i) for i, c in zip(row_cols[j0], row_costs[j0])]
        d, col = min(heap)
        if match_col[col] == -1:
            v[col] += d - d  # what a full search adds to its exit column
            u[j0] = u0 + d
            match_col[col] = j0
            row_col[j0] = col
            continue

        heapq.heapify(heap)
        for d, col in heap:
            best[col] = d
            pred[col] = j0
        final: list[tuple[int, float]] = []
        while True:  # j0's own dummy column is free, so an exit is always found
            d, col = heapq.heappop(heap)
            if done[col]:
                continue
            done[col] = True
            final.append((col, d))
            r1 = match_col[col]
            if r1 == -1:
                break
            ur1 = u[r1]
            for i, c in zip(row_cols[r1], row_costs[r1]):
                if not done[i]:
                    di = d + c - ur1 - v[i]
                    if di < best[i]:
                        best[i] = di
                        pred[i] = r1
                        heapq.heappush(heap, (di, i))

        # every column given a distance is final or still on the heap
        for _, i in heap:
            best[i] = math.inf
        for i, di in final:
            v[i] += di - d
            best[i] = math.inf
            done[i] = False
            r1 = match_col[i]
            if r1 != -1:
                u[r1] += d - di
        u[j0] = u0 + d

        while col != -1:  # the path ends at j0, which has no column yet
            r = pred[col]
            match_col[col] = r
            row_col[r], col = col, row_col[r]

    # each matched source has exactly one edge to its column
    edge_src = np.repeat(np.arange(ns), np.diff(g.indptr))
    chosen = g.targets == np.array(row_col, dtype=np.int64)[edge_src]
    m = Matching(nt, ns, g.targets[chosen], edge_src[chosen], g.weights[chosen])
    m.assert_degrees(1, 1)
    return m


def brute_force_matching(g: CandidateGraph) -> Matching:
    """Optimal partial matching by exhaustive enumeration; oracle for tiny graphs."""
    if g.n_src + g.n_trg > 16:
        raise ValueError(
            f"instance too large for brute force: {g.n_src} + {g.n_trg} vertices > 16"
        )
    adj = []
    for j in range(g.n_src):
        t, w = g.edges_of(j)
        adj.append(list(zip(t.tolist(), w.tolist())))

    best_weight = -math.inf
    best_pairs: list[tuple[int, int, float]] = []

    def recurse(j: int, used: int, acc: float, chosen: list[tuple[int, int, float]]):
        nonlocal best_weight, best_pairs
        if j == g.n_src:
            if acc > best_weight:
                best_weight = acc
                best_pairs = list(chosen)
            return
        recurse(j + 1, used, acc, chosen)
        for i, w in adj[j]:
            bit = 1 << i
            if used & bit:
                continue
            chosen.append((int(i), j, float(w)))
            recurse(j + 1, used | bit, acc + w, chosen)
            chosen.pop()

    recurse(0, 0, 0.0, [])
    trg, src, weight = zip(*best_pairs) if best_pairs else ((), (), ())
    m = Matching(g.n_trg, g.n_src, trg, src, weight)
    m.assert_degrees(1, 1)
    return m
