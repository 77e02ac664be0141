"""References that the tests check lexmatch against.

* hungarian_dense: dense maximum-weight perfect matching, delegating to
  scipy's assignment solver.
* brute_force_matching: exhaustive enumeration under degree caps, for tiny
  graphs.
* run_em_reference: the hard-EM loop that recomputes every iteration, for
  lexmatch.em.run_em, which reuses the results of unchanged parameters.
* edge_weight_reference: one pair's edge weight from scalar products, for
  lexmatch.candidates.edge_weight, which scores pairs stacked.
"""

import logging
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from conftest import graph_edges
from lexmatch.assignment import Matching
from lexmatch.em import (
    EmCollapseError,
    EmIteration,
    EmTrace,
    ModelParams,
    _mean_cosine,
    e_step,
    m_step,
    procrustes,
)

logger = logging.getLogger(__name__)


def edge_weight_reference(t: np.ndarray, s: np.ndarray, params: ModelParams) -> float:
    """-1/2 (||t - Omega s||^2 - ||t - mu||^2) of one (d,) target and source."""
    t = np.asarray(t, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    diff = t - params.omega @ s
    back = t - params.mu
    return float(-0.5 * (diff @ diff - back @ back))


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


def run_em_reference(S, T, seed, config):
    """run_em's loop with the E-step, the mean cosine and the M-step run on
    every iteration; it logs run_em's per-iteration lines."""
    src_idx = np.array([j for j, _ in seed.pairs], dtype=np.int64)
    trg_idx = np.array([i for _, i in seed.pairs], dtype=np.int64)
    pinned = None
    if config.pin_seed:
        pinned = Matching(T.n_words, S.n_words, trg_idx, src_idx, np.zeros(trg_idx.size))
    params = ModelParams(
        procrustes(S.data[:, src_idx], T.data[:, trg_idx]),
        np.zeros(S.dim, dtype=np.float64),
    )

    trace = EmTrace()
    assignment = Matching(T.n_words, S.n_words, [], [], [])
    prev_cos = None

    for it in range(1, config.max_iters + 1):
        assignment = e_step(S, T, params, config, pinned)
        if not len(assignment):
            raise EmCollapseError(f"E-step produced an empty matching at iteration {it}")

        mean_cos = _mean_cosine(S, T, params, assignment)
        rec = EmIteration(it, len(assignment), assignment.total_weight, mean_cos)
        trace.append(rec)
        logger.info(
            "iter=%d matched=%d total_weight=%.10f mean_cosine=%.10f",
            rec.iteration, rec.matched, rec.total_weight, rec.mean_cosine,
        )

        params = m_step(S, T, assignment, params, update_mu=config.update_mu)

        if (
            prev_cos is not None
            and it >= config.min_iters
            and mean_cos - prev_cos < config.convergence_eps
        ):
            trace.stop_reason = "converged" if mean_cos >= prev_cos else "cosine_dropped"
            break
        prev_cos = mean_cos

    return params, assignment, trace
