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
expressed in the same parameterization: the same pair set under a
different prior.  The 1:1, 1:2 and 2:2 priors are one solver call with that
prior's degree caps, on the candidate graph itself.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from lexmatch.assignment import Matching, solve_sparse_lap
from lexmatch.candidates import (
    CandidateGraph,
    build_candidates,
    edge_weight,
    score_top_k,
    weight_terms,
)
from lexmatch.embeddings import NORMALIZATION_SCHEMES, EmbeddingMatrix, Lexicon
from lexmatch.seeds import SeedDictionary

logger = logging.getLogger(__name__)

PRIOR_ONE_TO_ONE = "one_to_one"
PRIOR_ONE_TO_TWO = "one_to_two"
PRIOR_TWO_TO_TWO = "two_to_two"
PRIOR_ONE_TO_MANY = "one_to_many"

# (target, source) degree caps of each prior's pair sets; None: uncapped
PRIOR_CAPS = {
    PRIOR_ONE_TO_ONE: (1, 1),
    PRIOR_ONE_TO_TWO: (1, 2),
    PRIOR_TWO_TO_TWO: (2, 2),
    PRIOR_ONE_TO_MANY: (1, None),
}


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

    def validate(self) -> None:
        d = self.omega.shape[0]
        if self.omega.shape != (d, d) or self.mu.shape != (d,):
            raise ValueError(
                f"inconsistent parameter shapes {self.omega.shape}, {self.mu.shape}"
            )
        if not (np.all(np.isfinite(self.omega)) and np.all(np.isfinite(self.mu))):
            raise ValueError("non-finite model parameters")
        gram_err = np.linalg.norm(self.omega.T @ self.omega - np.eye(d))
        if gram_err > 1e-6:
            raise ValueError(f"omega is not orthogonal: ||O^T O - I||_F = {gram_err:.3e}")


@dataclass
class EmConfig:
    """Training configuration; defaults follow the standard recipe."""

    k: int = 3
    rank_restrict: tuple[int, int] | None = None
    convergence_eps: float = 1e-6
    max_iters: int = 500
    prior: str = PRIOR_ONE_TO_ONE
    min_iters: int = 1
    update_mu: bool = True
    pin_seed: bool = False
    threads: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0 < self.convergence_eps < math.inf:
            raise ValueError(f"convergence_eps must be finite and > 0, got {self.convergence_eps}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.min_iters < 1:
            raise ValueError(f"min_iters must be >= 1, got {self.min_iters}")
        if self.prior not in PRIOR_CAPS:
            raise ValueError(f"unknown prior {self.prior!r}, expected one of {tuple(PRIOR_CAPS)}")
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
    """Per-iteration records and why the loop stopped.

    stop_reason is "converged" when the mean cosine rose by less than the
    threshold, "cosine_dropped" when it fell, and "max_iters" otherwise.
    """

    records: list[EmIteration] = field(default_factory=list)
    stop_reason: str = "max_iters"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

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


# only the 1:2 reference for solve_sparse_lap's slots; kept since perfbench's tracer wraps it by name
def duplicate_and_merge(
    g: CandidateGraph,
) -> tuple[CandidateGraph, Callable[[Matching], Matching]]:
    """Source-copy transform of the 1:2 prior; the reference for solve_sparse_lap's slots.

    Returns the expanded graph, whose row ns + j repeats row j, and a merge
    mapping a 1:1 matching on it back to original ids: solve_sparse_lap(g,
    1, 2) equals merge(solve_sparse_lap(expanded)) byte for byte.
    """
    expanded = CandidateGraph(
        2 * g.n_src,
        g.n_trg,
        np.concatenate([g.indptr, g.indptr[1:] + g.n_edges]),
        np.tile(g.targets, 2),
        np.tile(g.weights, 2),
    )
    return expanded, lambda m: Matching(g.n_trg, g.n_src, m.trg, m.src % g.n_src, m.weight)


def e_step_one_to_many(
    S: EmbeddingMatrix, T: EmbeddingMatrix, params: ModelParams, config: EmConfig
) -> Matching:
    """Independent best source per target; unmatched where every weight < 0.

    The candidate scoring with the roles swapped: targets are the queries,
    sources the candidates, k = 1, so ties go to the lower source id.
    """
    mapped, Tsub, src_offset, trg_offset = weight_terms(S, T, params, config.rank_restrict)
    best, w = score_top_k(
        Tsub, mapped, 1, q_offset=trg_offset, c_offset=src_offset, threads=config.threads
    )
    keep = np.flatnonzero(w[:, 0] >= 0.0)
    return Matching(T.n_words, S.n_words, keep, best[keep, 0], w[keep, 0])


def m_step(
    S: EmbeddingMatrix,
    T: EmbeddingMatrix,
    matching: Matching,
    prev: ModelParams,
    update_mu: bool = True,
) -> ModelParams:
    """Closed-form parameter update from the current pairs.

    Omega by Procrustes over matched (t, s) columns (sources may repeat
    under one-to-many or relaxed priors); mu is the centroid of targets
    left unmatched, kept at prev.mu when nothing is unmatched or when
    update_mu is off.
    """
    if not len(matching):
        raise EmCollapseError("M-step received an empty pair set; training collapsed")
    omega = procrustes(S.data[:, matching.src], T.data[:, matching.trg])
    unmatched = np.ones(T.n_words, dtype=bool)
    unmatched[matching.trg] = False
    if update_mu and unmatched.any():
        mu = T.data[:, np.flatnonzero(unmatched)].mean(axis=1)
    else:
        mu = np.array(prev.mu, dtype=np.float64)
    params = ModelParams(omega, mu)
    params.validate()
    return params


def _mean_cosine(
    S: EmbeddingMatrix, T: EmbeddingMatrix, params: ModelParams, m: Matching
) -> float:
    t = T.data[:, m.trg]
    s = params.omega @ S.data[:, m.src]
    dots = np.einsum("ij,ij->j", t, s)
    norms = np.linalg.norm(t, axis=0) * np.linalg.norm(s, axis=0)
    # a pair with a zero vector counts as cosine 0
    return float(np.mean(np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0)))


def _pin_seed_pairs(
    m: Matching,
    seed: Matching,
    one_to_many: bool,
    S: EmbeddingMatrix,
    T: EmbeddingMatrix,
    params: ModelParams,
) -> Matching:
    """m with the seed pairs forced in and the pairs sharing a vertex with one dropped.

    Sources are shared freely under one-to-many, where kept pairs also keep
    their E-step weight; under the matching priors kept pairs are rescored
    to edge_weight's bits, as the seed pairs always are.
    """
    keep = ~np.isin(m.trg, seed.trg)
    if not one_to_many:
        keep &= ~np.isin(m.src, seed.src)
    trg, src = m.trg[keep], m.src[keep]
    if one_to_many:
        weight = m.weight[keep]
    else:
        weight = edge_weight(T.data[:, trg], S.data[:, src], params)
    return Matching(
        m.n_trg,
        m.n_src,
        np.concatenate([trg, seed.trg]),
        np.concatenate([src, seed.src]),
        np.concatenate([weight, edge_weight(T.data[:, seed.trg], S.data[:, seed.src], params)]),
    )


def e_step(
    S: EmbeddingMatrix,
    T: EmbeddingMatrix,
    params: ModelParams,
    config: EmConfig,
    pinned: Matching | None = None,
) -> Matching:
    """Best pair set under params within config.prior's PRIOR_CAPS.

    An uncapped source side is e_step_one_to_many; capped sides are one
    solver call on the candidate graph.  pinned pairs, if given, are forced
    in by _pin_seed_pairs and the result is checked against the caps.
    """
    trg_cap, src_cap = PRIOR_CAPS[config.prior]
    if src_cap is None:
        m = e_step_one_to_many(S, T, params, config)
    else:
        g = build_candidates(
            S, T, params, config.k, restrict=config.rank_restrict, threads=config.threads
        )
        m = solve_sparse_lap(g, trg_cap, src_cap)
    if pinned is not None:
        m = _pin_seed_pairs(m, pinned, src_cap is None, S, T, params)
        m.assert_degrees(trg_cap, src_cap)
    return m


def run_em(
    S: EmbeddingMatrix,
    T: EmbeddingMatrix,
    seed: SeedDictionary,
    config: EmConfig,
) -> tuple[ModelParams, Matching, EmTrace]:
    """Full training loop.

    Initialization: mu = 0 and Omega from Procrustes on the seed pairs
    alone; afterwards the seed is not treated specially unless
    config.pin_seed is set.  Stops when the mean cosine over induced pairs
    improves by less than convergence_eps between iterations, a drop
    included (checked from iteration max(2, min_iters) on), or at
    max_iters; trace.stop_reason says which.  Matrices are used as
    given, normalized by the caller.

    With config.pin_seed the seed pairs must themselves satisfy the prior's
    PRIOR_CAPS (ValueError otherwise), and every pinned result is checked
    against them.

    Once an E-step returns the pairs of the iteration before, the M-step
    would return the parameters it was given, and every later E-step the
    same pairs: such iterations are recorded, logged and stop-tested from
    the last results without being recomputed.  The trace, the stop rule
    and the outputs are those of recomputing every iteration.

    Returns final params, the last E-step pair set and the per-iteration
    trace.
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
    pinned = None
    if config.pin_seed:
        # weights are scored under the current params at each pinning
        pinned = Matching(T.n_words, S.n_words, trg_idx, src_idx, np.zeros(trg_idx.size))
        try:
            pinned.assert_degrees(*PRIOR_CAPS[config.prior])
        except ValueError as exc:
            raise ValueError(f"seed cannot be pinned under {config.prior}: {exc}") from None
    params = ModelParams(
        procrustes(S.data[:, src_idx], T.data[:, trg_idx]),
        np.zeros(S.dim, dtype=np.float64),
    )
    params.validate()

    trace = EmTrace()
    assignment = Matching(T.n_words, S.n_words, [], [], [])
    prev_cos: float | None = None
    previous: Matching | None = None  # the pairs of the iteration before
    changed = True  # whether params moved since the last E-step

    for it in range(1, config.max_iters + 1):
        if changed:
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

        # m_step reads only the pairs (and params.mu where it keeps it), so on
        # the pairs the previous iteration gave it, it returns params again
        changed = previous is None or not (
            np.array_equal(assignment.trg, previous.trg)
            and np.array_equal(assignment.src, previous.src)
        )
        if changed:
            params = m_step(S, T, assignment, params, update_mu=config.update_mu)
        previous = assignment

        if (
            prev_cos is not None
            and it >= config.min_iters
            and mean_cos - prev_cos < config.convergence_eps
        ):
            trace.stop_reason = "converged" if mean_cos >= prev_cos else "cosine_dropped"
            break
        prev_cos = mean_cos

    return params, assignment, trace


@dataclass
class TrainedSide:
    """One side as training saw it: the hex sha256 of its embedding file,
    and the lexicon and normalized matrix that run_em was given."""

    sha256: str
    lexicon: Lexicon
    matrix: EmbeddingMatrix


@dataclass
class Model:
    """Trained parameters and what evaluation needs to rebuild their space.

    normalization is the scheme training applied to both sides.  src_center
    and trg_center are the unit_center_unit centring vectors as training
    computed them (None under the other schemes).  src and trg are the sides
    themselves, None unless induce parsed every row of both files.
    """

    params: ModelParams
    normalization: str
    src_center: np.ndarray | None = None
    trg_center: np.ndarray | None = None
    src: TrainedSide | None = None
    trg: TrainedSide | None = None


def save_model(path: str, model: Model) -> None:
    """Write model to a self-describing .npz container (bit-exact round-trip).

    Format version 3.  A stored side is three keys: {side}_sha256,
    {side}_words, its words in UTF-8 joined by "\\n" as one uint8 array, and
    {side}_vectors, the (dim, n) float64 matrix.  Version 2 stored no sides
    but a source digest and the source words dropped as zero vectors;
    version 1 had no centring vectors either.
    """
    if model.normalization not in NORMALIZATION_SCHEMES:
        raise ValueError(f"unknown normalization {model.normalization!r}")
    model.params.validate()
    empty = np.zeros(0)
    arrays = {
        "format_version": np.int64(3),
        "dim": np.int64(model.params.dim),
        "omega": model.params.omega,
        "mu": model.params.mu,
        "normalization": model.normalization,
        "src_center": empty if model.src_center is None else model.src_center,
        "trg_center": empty if model.trg_center is None else model.trg_center,
    }
    for name, side in zip(("src", "trg"), (model.src, model.trg)):
        if side is None:
            continue
        text = "\n".join(side.lexicon.words)
        if text.count("\n") != max(len(side.lexicon) - 1, 0):
            raise ValueError(f"a {name} word holds a newline")
        arrays[f"{name}_sha256"] = side.sha256
        arrays[f"{name}_words"] = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        arrays[f"{name}_vectors"] = side.matrix.data
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_model(path: str) -> Model:
    """Read and check a model container; versions 1 and 2 give no stored
    sides, and version 1 no centring vectors."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"])
        if version not in (1, 2, 3):
            raise ValueError(f"unsupported model format version {version}")
        d = int(data["dim"])
        omega = data["omega"]
        mu = data["mu"]
        normalization = str(data["normalization"][()])
        centers = [data[k] if version > 1 else np.zeros(0) for k in ("src_center", "trg_center")]
        sides = [
            _load_side(data, name, label, d)
            if version == 3 and f"{name}_sha256" in data.files else None
            for name, label in (("src", "source"), ("trg", "target"))
        ]
    if omega.shape != (d, d) or mu.shape != (d,):
        raise ValueError(
            f"model arrays inconsistent with dim {d}: {omega.shape}, {mu.shape}"
        )
    if normalization not in NORMALIZATION_SCHEMES:
        raise ValueError(f"model declares unknown normalization {normalization!r}")
    params = ModelParams(omega, mu)
    params.validate()
    for c in centers:
        if c.size and (c.shape != (d,) or not np.all(np.isfinite(c))):
            raise ValueError(
                f"model centring vectors must be finite with shape ({d},), got shape {c.shape}"
            )
    return Model(params, normalization, *(c if c.size else None for c in centers), *sides)


def _load_side(data, name: str, label: str, d: int) -> TrainedSide:
    """The stored side name of an open version-3 container, checked."""
    sha256 = str(data[f"{name}_sha256"][()])
    words = data[f"{name}_words"]
    vectors = data[f"{name}_vectors"]
    try:
        if not re.fullmatch("[0-9a-f]{64}", sha256):
            raise ValueError(f"sha256 must be 64 hex digits, got {sha256!r}")
        if words.dtype != np.uint8 or words.ndim != 1:
            raise ValueError(f"words must be a uint8 array, got {words.dtype} {words.shape}")
        if vectors.dtype != np.float64 or vectors.ndim != 2 or vectors.shape[0] != d:
            raise ValueError(
                f"vectors must be float64 with shape ({d}, n), got {vectors.dtype} {vectors.shape}"
            )
        text = words.tobytes().decode("utf-8")
        n = vectors.shape[1]
        # "" is one empty word when there is a column for it
        names = text.split("\n") if text or n else []
        if len(names) != n:
            raise ValueError(f"{len(names)} words for {n} columns")
        return TrainedSide(sha256, Lexicon(names), EmbeddingMatrix(d, vectors))
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"model's stored {label} side: {exc}") from None
