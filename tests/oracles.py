"""Reference solvers that the tests check lexmatch.assignment.solve_sparse_lap against.

* hungarian_dense: dense maximum-weight perfect matching, delegating to
  scipy's assignment solver.
* brute_force_matching: exhaustive enumeration under degree caps, for tiny
  graphs.
"""

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from conftest import graph_edges
from lexmatch.assignment import Matching


def hungarian_dense(weights: np.ndarray) -> Matching:
    """Maximum-weight perfect matching of a square dense matrix.

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


def brute_force_matching(g, trg_cap: int = 1, src_cap: int = 1) -> Matching:
    """Optimal pair set under degree caps by exhaustive enumeration; for tiny graphs."""
    if g.n_src + g.n_trg > 16:
        raise ValueError(
            f"instance too large for brute force: {g.n_src} + {g.n_trg} vertices > 16"
        )
    edges = graph_edges(g)
    degree = [0] * (g.n_trg + g.n_src)  # targets, then sources
    best_weight = -math.inf
    best_pairs: list[tuple[int, int, float]] = []

    def recurse(e: int, acc: float, chosen: list[tuple[int, int, float]]):
        nonlocal best_weight, best_pairs
        if e == len(edges):
            if acc > best_weight:
                best_weight = acc
                best_pairs = list(chosen)
            return
        recurse(e + 1, acc, chosen)
        i, j, w = edges[e]
        if degree[i] < trg_cap and degree[g.n_trg + j] < src_cap:
            degree[i] += 1
            degree[g.n_trg + j] += 1
            chosen.append(edges[e])
            recurse(e + 1, acc + w, chosen)
            chosen.pop()
            degree[i] -= 1
            degree[g.n_trg + j] -= 1

    recurse(0, 0.0, [])
    trg, src, weight = zip(*best_pairs) if best_pairs else ((), (), ())
    m = Matching(g.n_trg, g.n_src, trg, src, weight)
    m.assert_degrees(trg_cap, src_cap)
    return m
