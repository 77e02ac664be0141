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
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from lexmatch.candidates import CandidateGraph


@dataclass
class Matching:
    """Edge set between targets and sources with at most one edge per vertex.

    Edges are (target, source) pairs sorted by target id; total_weight is
    an order-independent sum (math.fsum over the sorted edges) so equal
    edge sets always report bit-equal totals.  Prior variants relax the
    degree bound; assert_degrees makes the bound in force explicit.
    """

    n_trg: int
    n_src: int
    edges: list[tuple[int, int]]
    total_weight: float
    edge_weights: list[float] | None = None

    @classmethod
    def from_pairs(
        cls, n_trg: int, n_src: int, pairs: list[tuple[int, int, float]]
    ) -> "Matching":
        """Build from (target, source, weight) triples."""
        pairs = sorted(pairs)
        edges = [(i, j) for i, j, _ in pairs]
        weights = [w for _, _, w in pairs]
        total = math.fsum(weights)
        return cls(n_trg, n_src, edges, total, weights)

    def __len__(self) -> int:
        return len(self.edges)

    def assert_degrees(self, trg_cap: int = 1, src_cap: int = 1) -> None:
        trg_deg: dict[int, int] = {}
        src_deg: dict[int, int] = {}
        for i, j in self.edges:
            if not (0 <= i < self.n_trg and 0 <= j < self.n_src):
                raise ValueError(f"edge ({i}, {j}) out of range")
            trg_deg[i] = trg_deg.get(i, 0) + 1
            src_deg[j] = src_deg.get(j, 0) + 1
            if trg_deg[i] > trg_cap:
                raise ValueError(f"target {i} exceeds degree cap {trg_cap}")
            if src_deg[j] > src_cap:
                raise ValueError(f"source {j} exceeds degree cap {src_cap}")

    def matched_targets(self) -> set[int]:
        return {i for i, _ in self.edges}

    def matched_sources(self) -> set[int]:
        return {j for _, j in self.edges}

    def unmatched_targets(self) -> np.ndarray:
        mask = np.ones(self.n_trg, dtype=bool)
        for i, _ in self.edges:
            mask[i] = False
        return np.flatnonzero(mask)

    def unmatched_sources(self) -> np.ndarray:
        mask = np.ones(self.n_src, dtype=bool)
        for _, j in self.edges:
            mask[j] = False
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
    n = w.shape[0]
    m = Matching.from_pairs(
        n, n, [(int(i), int(j), float(w[i, j])) for i, j in zip(rows, cols)]
    )
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
    """
    g.check_no_duplicates()
    if g.n_edges and g.weights.min() < 0:
        raise ValueError("negative edge weight; prune candidates first")

    ns, nt = g.n_src, g.n_trg
    bounds = g.indptr.tolist()
    all_targets = g.targets.tolist()
    all_costs = (-g.weights).tolist()
    row_targets = [all_targets[bounds[j]:bounds[j + 1]] for j in range(ns)]
    row_costs = [all_costs[bounds[j]:bounds[j + 1]] for j in range(ns)]

    n_cols = nt + ns  # col nt + j is the dummy column of source j
    v = [0.0] * n_cols
    u = [0.0] * ns
    match_col = [-1] * n_cols  # col -> row
    row_col = [-1] * ns  # row -> col

    # a source without edges can only take its own dummy column, which no
    # other source reaches, so skipping it leaves the matching and duals as
    # they would be
    for j0 in np.flatnonzero(np.diff(g.indptr)).tolist():
        dummy0 = nt + j0
        u0 = -v[dummy0]
        for i, c in zip(row_targets[j0], row_costs[j0]):
            r = c - v[i]
            if r < u0:
                u0 = r

        dist_final: dict[int, float] = {}
        best: dict[int, float] = {}
        pred: dict[int, int] = {}
        expanded: list[tuple[int, float]] = []
        heap: list[tuple[float, int]] = []

        def relax(col: int, d: float, from_row: int) -> None:
            if col in dist_final:
                return
            cur = best.get(col)
            if cur is None or d < cur:
                best[col] = d
                pred[col] = from_row
                heapq.heappush(heap, (d, col))

        relax(dummy0, -u0 - v[dummy0], j0)
        for i, c in zip(row_targets[j0], row_costs[j0]):
            relax(i, c - u0 - v[i], j0)

        exit_col = -1
        exit_dist = 0.0
        while heap:
            d, col = heapq.heappop(heap)
            if col in dist_final:
                continue
            dist_final[col] = d
            if match_col[col] == -1:
                exit_col, exit_dist = col, d
                break
            r1 = match_col[col]
            expanded.append((r1, d))
            ur1 = u[r1]
            for i, c in zip(row_targets[r1], row_costs[r1]):
                relax(i, d + c - ur1 - v[i], r1)
            dummy1 = nt + r1
            relax(dummy1, d - ur1 - v[dummy1], r1)

        # the dummy column guarantees an exit is always found
        assert exit_col >= 0

        for col, d in dist_final.items():
            v[col] += d - exit_dist
        for r1, d in expanded:
            u[r1] += exit_dist - d
        u[j0] = u0 + exit_dist

        col = exit_col
        while True:
            r = pred[col]
            prev_col = row_col[r]
            match_col[col] = r
            row_col[r] = col
            if r == j0:
                break
            col = prev_col

    # each matched source has exactly one edge to its column
    edge_src = np.repeat(np.arange(ns), np.diff(g.indptr))
    chosen = g.targets == np.array(row_col, dtype=np.int64)[edge_src]
    m = Matching.from_pairs(
        nt,
        ns,
        list(zip(g.targets[chosen].tolist(), edge_src[chosen].tolist(),
                 g.weights[chosen].tolist())),
    )
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
    m = Matching.from_pairs(g.n_trg, g.n_src, best_pairs)
    m.assert_degrees(1, 1)
    return m
