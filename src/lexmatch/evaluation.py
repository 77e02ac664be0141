"""Model evaluation: induction precision, word similarity, hubness, queries."""

from __future__ import annotations

import numpy as np

from lexmatch.candidates import score_top_k
from lexmatch.em import ModelParams
from lexmatch.embeddings import EmbeddingMatrix, Lexicon
from lexmatch.seeds import tsv_fields


def load_eval_dictionary(path: str) -> dict[str, set[str]]:
    """Gold dictionary TSV; repeated source words accumulate reference sets."""
    entries: dict[str, set[str]] = {}
    for _, (src, trg) in tsv_fields(path, "src<TAB>trg"):
        entries.setdefault(src, set()).add(trg)
    if not entries:
        raise ValueError(f"empty evaluation dictionary {path}")
    return entries


def load_wordsim_tsv(path: str) -> list[tuple[str, str, float]]:
    """Word-similarity triples "src<TAB>trg<TAB>score"; every score is finite."""
    triples: list[tuple[str, str, float]] = []
    for lineno, (src, trg, score) in tsv_fields(path, "src<TAB>trg<TAB>score"):
        try:
            value = float(score)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: unparseable score {score!r}") from None
        if not np.isfinite(value):
            raise ValueError(f"{path}: line {lineno}: non-finite score {score!r}")
        triples.append((src, trg, value))
    if not triples:
        raise ValueError(f"{path}: empty word-similarity file")
    return triples


def _unit_cols(data: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(data, axis=0)
    norms = np.where(norms == 0.0, 1.0, norms)
    return data / norms


def _top_cosines(
    params: ModelParams, S: EmbeddingMatrix, T: EmbeddingMatrix, src_indices, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(target ids, cosines) of the k nearest targets per source id; ids must lie in S."""
    idx = np.asarray(src_indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= S.n_words):
        raise IndexError(f"source index out of range [0, {S.n_words})")
    return score_top_k(_unit_cols(params.omega @ S.data[:, idx]), _unit_cols(T.data), k)


def translate_batch(
    params: ModelParams, S: EmbeddingMatrix, T: EmbeddingMatrix, src_indices
) -> np.ndarray:
    """Cosine-nearest target id per source id; ties go to the lower target id."""
    return _top_cosines(params, S, T, src_indices, 1)[0][:, 0]


def topn_neighbors(
    params: ModelParams,
    S: EmbeddingMatrix,
    T: EmbeddingMatrix,
    src_indices,
    n: int,
) -> list[list[tuple[int, float]]]:
    """Top-n (target id, cosine) per source id, ranked with lower-id tie-breaks."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    nn_idx, cos = _top_cosines(params, S, T, src_indices, n)
    return [
        [(int(i), float(c)) for i, c in zip(row_i, row_c)]
        for row_i, row_c in zip(nn_idx.tolist(), cos.tolist())
    ]


def precision_at_1(
    params: ModelParams,
    S: EmbeddingMatrix,
    T: EmbeddingMatrix,
    gold: dict[str, set[str]],
    lex_src: Lexicon,
    lex_trg: Lexicon,
) -> tuple[float, float]:
    """P@1 over gold entries usable under the vocabularies, plus coverage.

    An entry is usable when its source word is in vocabulary and at least
    one reference target is; other entries are excluded and reflected in
    coverage = usable / total.  A prediction counts when the top-1 target
    word is any in-vocabulary reference.
    """
    usable_src: list[int] = []
    usable_refs: list[set[int]] = []
    for src_word in sorted(gold):
        refs = gold[src_word]
        if not refs:
            raise ValueError(f"gold entry {src_word!r} has an empty reference set")
        if src_word not in lex_src:
            continue
        ref_ids = {lex_trg.id(t) for t in refs if t in lex_trg}
        if not ref_ids:
            continue
        usable_src.append(lex_src.id(src_word))
        usable_refs.append(ref_ids)
    if not usable_src:
        raise ValueError("evaluation dictionary has zero coverage under these vocabularies")
    top1 = translate_batch(params, S, T, usable_src)
    hits = sum(1 for t, refs in zip(top1, usable_refs) if int(t) in refs)
    return hits / len(usable_src), len(usable_src) / len(gold)


def word_similarity(
    params: ModelParams,
    S: EmbeddingMatrix,
    T: EmbeddingMatrix,
    triples: list[tuple[str, str, float]],
    lex_src: Lexicon,
    lex_trg: Lexicon,
) -> tuple[float, float]:
    """Spearman correlation between gold scores and model cosines.

    Tied ranks get their average rank.  Triples with an
    out-of-vocabulary word on either side are skipped; coverage reports
    the surviving fraction.  At least two usable triples are required, and
    neither the gold scores nor the cosines may be all equal.
    """
    src_ids: list[int] = []
    trg_ids: list[int] = []
    golds: list[float] = []
    for src_word, trg_word, score in triples:
        if src_word not in lex_src or trg_word not in lex_trg:
            continue
        src_ids.append(lex_src.id(src_word))
        trg_ids.append(lex_trg.id(trg_word))
        golds.append(score)
    if len(golds) < 2:
        raise ValueError(
            f"need at least 2 in-vocabulary word-similarity triples, got {len(golds)}"
        )
    q = _unit_cols(params.omega @ S.data[:, np.array(src_ids, dtype=np.int64)])
    t = _unit_cols(T.data[:, np.array(trg_ids, dtype=np.int64)])
    cos = np.einsum("ij,ij->j", t, q)
    for name, x in (("gold scores", np.asarray(golds)), ("cosines", cos)):
        if (x == x[0]).all():
            raise ValueError(f"the {name} are constant; Spearman's correlation is undefined")
    from scipy.stats import spearmanr  # here, so that no other command loads scipy

    rho = spearmanr(golds, cos).statistic
    return float(rho), len(golds) / len(triples)


def hubness(
    params: ModelParams,
    S: EmbeddingMatrix,
    T: EmbeddingMatrix,
    queries,
    k: int,
) -> np.ndarray:
    """Exact k-NN occupancy counts N_k(y) over a query set of source ids.

    Returns the (n_trg,) counts: counts[y] is the number of queries having
    target y among their k nearest targets by cosine in the mapped space,
    so the counts sum to k times the number of queries.  Ties go to the
    lower target id, the same rule as candidate construction.
    """
    if np.size(queries) == 0:
        raise ValueError("empty query set")
    if k > T.n_words:
        raise ValueError(f"k = {k} exceeds target vocabulary size {T.n_words}")
    nn_idx, _ = _top_cosines(params, S, T, queries, k)
    return np.bincount(nn_idx.ravel(), minlength=T.n_words)
