"""Hard-EM training loop for the latent-matching translation model.

The model scores a target embedding t either as explained by a mapped
source embedding (t ~ N(Omega s, I), Omega orthogonal) or by a shared
background mean (t ~ N(mu, I)).  The latent variable is a partial
bipartite matching between the two vocabularies; training alternates

  E-step: best matching under current (Omega, mu) via sparse assignment,
  M-step: Omega by orthogonal Procrustes on the matched pairs, mu as the
          centroid of the unmatched target vectors.

A one-to-many mode replaces the matching by an independent argmax per
target (sources may repeat), which is the standard self-training baseline
expressed in the same parameterization.  1:2 / 2:2 priors are realized by
duplicating vertices before solving and merging copies afterwards.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from lexmatch.assignment import Matching, solve_sparse_lap
from lexmatch.candidates import (
    CandidateGraph,
    build_candidates,
    score_top_k,
    weight_terms,
)
from lexmatch.embeddings import NORM_UNIT, NORMALIZATION_SCHEMES, EmbeddingMatrix
from lexmatch.seeds import SeedDictionary

logger = logging.getLogger(__name__)

PRIOR_ONE_TO_ONE = "one_to_one"
PRIOR_ONE_TO_TWO = "one_to_two"
PRIOR_TWO_TO_TWO = "two_to_two"
PRIOR_ONE_TO_MANY = "one_to_many"
PRIOR_KINDS = (
    PRIOR_ONE_TO_ONE,
    PRIOR_ONE_TO_TWO,
    PRIOR_TWO_TO_TWO,
    PRIOR_ONE_TO_MANY,
)

# frequency-prefix cap on E-step matching when rank restriction is on
DEFAULT_RANK_RESTRICT = (40_000, 40_000)

UNALIGNED = -1


class EmCollapseError(RuntimeError):
    """Raised when training degenerates to an empty pair set."""


@dataclass
class ModelParams:
    """Trained parameters: orthogonal map omega (d x d) and background mean mu (d,)."""

    omega: np.ndarray
    mu: np.ndarray

    def __post_init__(self) -> None:
        self.omega = np.asarray(self.omega, dtype=np.float64)
        self.mu = np.asarray(self.mu, dtype=np.float64)

    @property
    def dim(self) -> int:
        return self.omega.shape[0]

    def validate(self, tol: float = 1e-6) -> None:
        d = self.omega.shape[0]
        if self.omega.shape != (d, d) or self.mu.shape != (d,):
            raise ValueError(
                f"inconsistent parameter shapes {self.omega.shape}, {self.mu.shape}"
            )
        if not (np.all(np.isfinite(self.omega)) and np.all(np.isfinite(self.mu))):
            raise ValueError("non-finite model parameters")
        gram_err = np.linalg.norm(self.omega.T @ self.omega - np.eye(d))
        if gram_err > tol:
            raise ValueError(f"omega is not orthogonal: ||O^T O - I||_F = {gram_err:.3e}")


@dataclass
class Alignment:
    """One-to-many result: for each target, its source id or UNALIGNED (-1).

    weights[i] is the edge weight of target i's link (0.0 where unaligned);
    sources may repeat, targets cannot.
    """

    source_for_target: np.ndarray
    n_src: int
    weights: np.ndarray

    def pairs(self) -> list[tuple[int, int]]:
        """(target, source) pairs, target-ascending."""
        idx = np.flatnonzero(self.source_for_target != UNALIGNED)
        return [(int(i), int(self.source_for_target[i])) for i in idx]

    def unaligned_targets(self) -> np.ndarray:
        return np.flatnonzero(self.source_for_target == UNALIGNED)

    @property
    def total_weight(self) -> float:
        idx = np.flatnonzero(self.source_for_target != UNALIGNED)
        return math.fsum(float(self.weights[i]) for i in idx)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.source_for_target != UNALIGNED))


@dataclass
class EmConfig:
    """Training configuration; defaults follow the standard recipe."""

    k: int = 3
    rank_restrict: tuple[int, int] | None = None
    convergence_eps: float = 1e-6
    max_iters: int = 500
    prior: str = PRIOR_ONE_TO_ONE
    normalization: str = NORM_UNIT
    min_iters: int = 1
    update_mu: bool = True
    pin_seed: bool = False
    threads: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.convergence_eps <= 0:
            raise ValueError(f"convergence_eps must be > 0, got {self.convergence_eps}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.min_iters < 1:
            raise ValueError(f"min_iters must be >= 1, got {self.min_iters}")
        if self.prior not in PRIOR_KINDS:
            raise ValueError(f"unknown prior {self.prior!r}, expected one of {PRIOR_KINDS}")
        if self.normalization not in NORMALIZATION_SCHEMES:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.rank_restrict is not None:
            a, b = self.rank_restrict
            if a < 1 or b < 1:
                raise ValueError(f"rank_restrict bounds must be >= 1, got {self.rank_restrict}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


@dataclass
class EmIteration:
    iteration: int
    matched: int
    total_weight: float
    mean_cosine: float


@dataclass
class EmTrace:
    records: list[EmIteration] = field(default_factory=list)
    converged: bool = False

    def append(self, rec: EmIteration) -> None:
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)


def procrustes(S_m: np.ndarray, T_m: np.ndarray) -> np.ndarray:
    """Orthogonal map minimizing ||T_m - Omega S_m||_F over orthogonal Omega.

    Columns of S_m and T_m are paired.  The minimizer is U V^T from the
    SVD U Sigma V^T = T_m S_m^T, which maximizes tr(Omega S_m T_m^T).
    """
    S_m = np.asarray(S_m, dtype=np.float64)
    T_m = np.asarray(T_m, dtype=np.float64)
    if S_m.shape != T_m.shape:
        raise ValueError(f"paired matrices differ in shape: {S_m.shape} vs {T_m.shape}")
    if S_m.ndim != 2 or S_m.shape[1] < 1:
        raise ValueError("need at least one matched column pair")
    u, _, vt = np.linalg.svd(T_m @ S_m.T)
    return u @ vt


def centroid(T: EmbeddingMatrix, u_trg, prev_mu: np.ndarray) -> np.ndarray:
    """Mean of the target columns in u_trg; empty u_trg keeps prev_mu."""
    idx = np.asarray(list(u_trg) if not isinstance(u_trg, np.ndarray) else u_trg, dtype=np.int64)
    if idx.size == 0:
        return np.array(prev_mu, dtype=np.float64)
    if idx.min() < 0 or idx.max() >= T.n_words:
        raise IndexError(f"target index out of range [0, {T.n_words})")
    return T.data[:, idx].mean(axis=1)


def duplicate_and_merge(
    g: CandidateGraph, prior: str
) -> tuple[CandidateGraph, Callable[[Matching], Matching]]:
    """Vertex-copy transform realizing the 1:2 / 2:2 matching priors.

    Returns the expanded graph (copies carry identical edge weights) and a
    merge function mapping a matching on it back to original ids, dropping
    duplicated (target, source) pairs.  Merged results satisfy degree caps
    (1, 2) for one_to_two and (2, 2) for two_to_two.
    """
    if prior not in (PRIOR_ONE_TO_TWO, PRIOR_TWO_TO_TWO):
        raise ValueError(f"duplicate_and_merge applies to 1:2/2:2 priors, got {prior!r}")
    ns, nt = g.n_src, g.n_trg
    n_edges = g.n_edges
    both = prior == PRIOR_TWO_TO_TWO

    if both:
        # each source copy sees both target copies: 4 edges per original
        per_src_counts = np.diff(g.indptr) * 2
        counts = np.concatenate([per_src_counts, per_src_counts])
        targets = np.empty(4 * n_edges, dtype=np.int64)
        weights = np.empty(4 * n_edges, dtype=np.float64)
        pos = 0
        for copy in range(2):
            for j in range(ns):
                t, w = g.edges_of(j)
                m = t.size
                targets[pos:pos + m] = t
                weights[pos:pos + m] = w
                targets[pos + m:pos + 2 * m] = t + nt
                weights[pos + m:pos + 2 * m] = w
                pos += 2 * m
        indptr = np.zeros(2 * ns + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        expanded = CandidateGraph(2 * ns, 2 * nt, indptr, targets, weights)
        caps = (2, 2)
    else:
        indptr = np.concatenate([g.indptr, g.indptr[1:] + n_edges])
        targets = np.concatenate([g.targets, g.targets])
        weights = np.concatenate([g.weights, g.weights])
        expanded = CandidateGraph(2 * ns, nt, indptr, targets, weights)
        caps = (1, 2)

    def merge(m: Matching) -> Matching:
        seen: dict[tuple[int, int], float] = {}
        for i, j in m.edges:
            oi, oj = i % nt, j % ns
            if (oi, oj) not in seen:
                seen[(oi, oj)] = _matching_edge_weight(expanded, i, j)
        merged = Matching.from_pairs(
            nt, ns, [(i, j, w) for (i, j), w in seen.items()]
        )
        merged.assert_degrees(*caps)
        return merged

    return expanded, merge


def _matching_edge_weight(g: CandidateGraph, i: int, j: int) -> float:
    t, w = g.edges_of(j)
    pos = np.flatnonzero(t == i)
    if pos.size == 0:
        raise ValueError(f"edge ({i}, {j}) not present in graph")
    return float(w[pos[0]])


def e_step_matching(
    S: EmbeddingMatrix, T: EmbeddingMatrix, params: ModelParams, config: EmConfig
) -> Matching:
    """Best partial matching under current params (priors via vertex copies)."""
    g = build_candidates(
        S, T, params, config.k, restrict=config.rank_restrict, threads=config.threads
    )
    if config.prior == PRIOR_ONE_TO_ONE:
        return solve_sparse_lap(g)
    if config.prior in (PRIOR_ONE_TO_TWO, PRIOR_TWO_TO_TWO):
        expanded, merge = duplicate_and_merge(g, config.prior)
        return merge(solve_sparse_lap(expanded))
    raise ValueError(f"e_step_matching does not handle prior {config.prior!r}")


def e_step_one_to_many(
    S: EmbeddingMatrix, T: EmbeddingMatrix, params: ModelParams, config: EmConfig
) -> Alignment:
    """Independent best source per target; unaligned where every weight < 0.

    The candidate scoring with the roles swapped: targets are the queries,
    sources the candidates, k = 1, so ties go to the lower source id.
    """
    mapped, Tsub, src_offset, trg_offset = weight_terms(S, T, params, config.rank_restrict)
    best, w = score_top_k(
        Tsub, mapped, 1, q_offset=trg_offset, c_offset=src_offset, threads=config.threads
    )
    nt = Tsub.shape[1]
    keep = w[:, 0] >= 0.0
    a = np.full(T.n_words, UNALIGNED, dtype=np.int64)
    wbest = np.zeros(T.n_words, dtype=np.float64)
    a[:nt][keep] = best[keep, 0]
    wbest[:nt][keep] = w[keep, 0]
    return Alignment(a, S.n_words, wbest)


def m_step(
    S: EmbeddingMatrix,
    T: EmbeddingMatrix,
    assignment: Matching | Alignment,
    prev: ModelParams,
    update_mu: bool = True,
) -> ModelParams:
    """Closed-form parameter update from the current pairs.

    Omega by Procrustes over matched (t, s) columns (sources may repeat
    under one-to-many or relaxed priors); mu is the centroid of targets
    left unmatched, kept at prev.mu when nothing is unmatched or when
    update_mu is off.
    """
    if isinstance(assignment, Alignment):
        pair_list = assignment.pairs()
        unmatched = assignment.unaligned_targets()
    else:
        pair_list = list(assignment.edges)
        unmatched = assignment.unmatched_targets()
    if not pair_list:
        raise EmCollapseError("M-step received an empty pair set; training collapsed")
    trg_idx = np.array([i for i, _ in pair_list], dtype=np.int64)
    src_idx = np.array([j for _, j in pair_list], dtype=np.int64)
    omega = procrustes(S.data[:, src_idx], T.data[:, trg_idx])
    if update_mu:
        mu = centroid(T, unmatched, prev.mu)
    else:
        mu = np.array(prev.mu, dtype=np.float64)
    params = ModelParams(omega, mu)
    params.validate()
    return params


def _mean_cosine(
    S: EmbeddingMatrix, T: EmbeddingMatrix, params: ModelParams, pair_list: list[tuple[int, int]]
) -> float:
    trg_idx = np.array([i for i, _ in pair_list], dtype=np.int64)
    src_idx = np.array([j for _, j in pair_list], dtype=np.int64)
    t = T.data[:, trg_idx]
    s = params.omega @ S.data[:, src_idx]
    dots = np.einsum("ij,ij->j", t, s)
    norms = np.linalg.norm(t, axis=0) * np.linalg.norm(s, axis=0)
    return float(np.mean(dots / norms))


def _pin_seed_pairs(
    assignment: Matching | Alignment,
    seed: SeedDictionary,
    S: EmbeddingMatrix,
    T: EmbeddingMatrix,
    params: ModelParams,
) -> Matching | Alignment:
    from lexmatch.candidates import edge_weight

    if isinstance(assignment, Alignment):
        a = assignment.source_for_target.copy()
        w = assignment.weights.copy()
        for j, i in seed.pairs:
            a[i] = j
            w[i] = edge_weight(T.data[:, i], S.data[:, j], params)
        return Alignment(a, assignment.n_src, w)
    seed_trg = {i for _, i in seed.pairs}
    seed_src = {j for j, _ in seed.pairs}
    kept: list[tuple[int, int, float]] = []
    for (i, j) in assignment.edges:
        if i in seed_trg or j in seed_src:
            continue
        kept.append((i, j, edge_weight(T.data[:, i], S.data[:, j], params)))
    for j, i in seed.pairs:
        kept.append((i, j, edge_weight(T.data[:, i], S.data[:, j], params)))
    return Matching.from_pairs(assignment.n_trg, assignment.n_src, kept)


def run_em(
    S: EmbeddingMatrix,
    T: EmbeddingMatrix,
    seed: SeedDictionary,
    config: EmConfig,
) -> tuple[ModelParams, Matching | Alignment, EmTrace]:
    """Full training loop.

    Initialization: mu = 0 and Omega from Procrustes on the seed pairs
    alone; afterwards the seed is not treated specially unless
    config.pin_seed is set.  Stops when the mean cosine over induced pairs
    improves by less than convergence_eps between iterations (checked from
    iteration max(2, min_iters) on) or at max_iters.  Matrices are used as
    given; config.normalization is metadata recorded by the caller, which
    is expected to have applied it at load time.

    Returns final params, the last E-step result (a Matching, or an
    Alignment in one_to_many mode), and the per-iteration trace.
    """
    if not seed.pairs:
        raise ValueError("seed dictionary is empty")
    for j, i in seed.pairs:
        if not (0 <= j < S.n_words and 0 <= i < T.n_words):
            raise ValueError(f"seed pair ({j}, {i}) out of vocabulary range")
    if S.dim != T.dim:
        raise ValueError(f"dimension mismatch: source {S.dim}, target {T.dim}")

    src_idx = np.array([j for j, _ in seed.pairs], dtype=np.int64)
    trg_idx = np.array([i for _, i in seed.pairs], dtype=np.int64)
    params = ModelParams(
        procrustes(S.data[:, src_idx], T.data[:, trg_idx]),
        np.zeros(S.dim, dtype=np.float64),
    )
    params.validate()

    trace = EmTrace()
    one_to_many = config.prior == PRIOR_ONE_TO_MANY
    assignment: Matching | Alignment = Matching(T.n_words, S.n_words, [], 0.0)
    prev_cos: float | None = None

    for it in range(1, config.max_iters + 1):
        if one_to_many:
            assignment = e_step_one_to_many(S, T, params, config)
        else:
            assignment = e_step_matching(S, T, params, config)
        if config.pin_seed:
            assignment = _pin_seed_pairs(assignment, seed, S, T, params)
        pair_list = (
            assignment.pairs() if isinstance(assignment, Alignment) else list(assignment.edges)
        )
        if not pair_list:
            raise EmCollapseError(f"E-step produced an empty matching at iteration {it}")

        mean_cos = _mean_cosine(S, T, params, pair_list)
        rec = EmIteration(it, len(pair_list), assignment.total_weight, mean_cos)
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
            trace.converged = True
            break
        prev_cos = mean_cos

    return params, assignment, trace


def save_model(path: str, params: ModelParams, normalization: str) -> None:
    """Write params to a self-describing .npz container (bit-exact round-trip)."""
    if normalization not in NORMALIZATION_SCHEMES:
        raise ValueError(f"unknown normalization {normalization!r}")
    params.validate()
    with open(path, "wb") as fh:
        np.savez(
            fh,
            format_version=np.int64(1),
            dim=np.int64(params.dim),
            omega=params.omega,
            mu=params.mu,
            normalization=normalization,
        )


def load_model(path: str) -> tuple[ModelParams, str]:
    """Read a model container; re-validates orthogonality."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != 1:
            raise ValueError(f"unsupported model format version {version}")
        d = int(data["dim"])
        omega = data["omega"]
        mu = data["mu"]
        normalization = str(data["normalization"][()])
    if omega.shape != (d, d) or mu.shape != (d,):
        raise ValueError(
            f"model arrays inconsistent with dim {d}: {omega.shape}, {mu.shape}"
        )
    if normalization not in NORMALIZATION_SCHEMES:
        raise ValueError(f"model declares unknown normalization {normalization!r}")
    params = ModelParams(omega, mu)
    params.validate()
    return params, normalization
