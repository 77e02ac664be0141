"""The blocked top-k kernel and every caller against a brute-force ranking.

Vectors are drawn from a small pool of 4-d integer vectors whose norms are
0, 1, 2 or 4, and the map is a signed permutation, so every weight and every
cosine is exact in float64 and equal scores really are equal.  The pool is
small, so ties are everywhere.  The block and selection-slice constants are
patched down to a few scores, so every call runs through many ragged blocks
and slices.  TestSlicedSelection
checks on random real-valued scores that selecting in row slices gives the
bytes of selecting whole blocks.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edges_of
from lexmatch import candidates
from lexmatch.candidates import build_candidates
from lexmatch.em import EmConfig, ModelParams, e_step_one_to_many, PRIOR_ONE_TO_MANY
from lexmatch.embeddings import EmbeddingMatrix
from lexmatch.evaluation import hubness, topn_neighbors, translate_batch
from oracles import edge_weight_reference

D = 4
POOL = np.array(
    [[0, 0, 0, 0]]
    + [c * np.eye(D, dtype=int)[i] for c in (1, -1, 2, 4) for i in range(D)]
    + [[1, 1, 1, 1], [1, -1, 1, -1], [-1, -1, 1, 1], [2, 2, -2, 2]],
    dtype=np.float64,
).T


@st.composite
def instances(draw):
    n_src = draw(st.integers(1, 12))
    n_trg = draw(st.integers(1, 12))
    pool = draw(st.lists(st.integers(0, POOL.shape[1] - 1), min_size=1, max_size=5))
    src = draw(st.lists(st.sampled_from(pool), min_size=n_src, max_size=n_src))
    trg = draw(st.lists(st.sampled_from(pool), min_size=n_trg, max_size=n_trg))
    perm = draw(st.permutations(range(D)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=D, max_size=D))
    omega = np.eye(D)[:, perm] * np.array(signs)
    mu = np.array(draw(st.lists(st.integers(-2, 2), min_size=D, max_size=D)), dtype=float)
    return (
        EmbeddingMatrix(D, POOL[:, src]),
        EmbeddingMatrix(D, POOL[:, trg]),
        ModelParams(omega, mu),
    )


def small_blocks(block, data):
    """Patch score_top_k's blocks down to `block` scores and its selection
    slices to a drawn few."""
    select = data.draw(st.integers(1, 40), label="select")
    return mock.patch.multiple(candidates, BLOCK_ELEMENTS=block, _SELECT_ELEMENTS=select)


def ranked(scores, k):
    """Brute force: the k best columns of every row by (-score, id)."""
    ids = np.arange(scores.shape[1])
    return [np.lexsort((ids, -row))[:k] for row in scores]


def weight_matrix(S, T, params, ns, nt):
    """(sources, targets) scalar edge weights over the restricted prefixes."""
    return np.array(
        [
            [edge_weight_reference(T.data[:, i], S.data[:, j], params) for i in range(nt)]
            for j in range(ns)
        ]
    ).reshape(ns, nt)


def unit(x):
    norms = np.linalg.norm(x, axis=0)
    return x / np.where(norms == 0.0, 1.0, norms)


def cosine_matrix(S, T, params, ids):
    return unit(params.omega @ S.data[:, ids]).T @ unit(T.data)


class TestKernelCallers:
    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(1, 14),
        st.integers(1, 40),
        st.booleans(),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_kernel(self, nq, nc, k, block, offset, seed, data):
        """The k best columns of Q.C + c_offset, and exactly their scores."""
        rng = np.random.default_rng(seed)
        Q, C = (rng.integers(-2, 3, size=(3, n)).astype(np.float64) for n in (nq, nc))
        c_offset = rng.integers(-2, 3, size=nc).astype(np.float64) if offset else None
        scores = Q.T @ C + (0.0 if c_offset is None else c_offset)
        with small_blocks(block, data):
            idx, val = candidates.score_top_k(Q, C, k, c_offset=c_offset, threads=1)
        want = ranked(scores, k)
        assert idx.tolist() == [r.tolist() for r in want]
        assert val.tolist() == [row[r].tolist() for row, r in zip(scores, want)]

    @settings(deadline=None, max_examples=150)
    @given(
        instances(),
        st.integers(1, 14),
        st.integers(1, 40),
        st.booleans(),
        st.sampled_from([1, 3]),
        st.data(),
    )
    def test_build_candidates(self, inst, k, block, restricted, threads, data):
        """Top-k by (-weight, target id), pruned below 0, for any blocking."""
        S, T, params = inst
        restrict = None
        ns, nt = S.n_words, T.n_words
        if restricted:
            ns = data.draw(st.integers(1, S.n_words))
            nt = data.draw(st.integers(1, T.n_words))
            restrict = (ns, nt)
        with small_blocks(block, data):
            g = build_candidates(S, T, params, k, restrict=restrict, threads=threads)
        W = weight_matrix(S, T, params, ns, nt)
        g.validate()
        assert g.n_src == S.n_words and g.n_trg == T.n_words
        for j in range(S.n_words):
            targets, weights = edges_of(g, j)
            expected = [] if j >= ns else [i for i in ranked(W, k)[j] if W[j, i] >= 0.0]
            assert targets.tolist() == expected
            assert weights.tolist() == [W[j, i] for i in expected]

    @settings(deadline=None, max_examples=100)
    @given(instances(), st.integers(1, 40), st.sampled_from([1, 3]), st.data())
    def test_one_to_many(self, inst, block, threads, data):
        """Best source per target, ties to the lower source, unaligned below 0."""
        S, T, params = inst
        ns = data.draw(st.integers(1, S.n_words))
        nt = data.draw(st.integers(1, T.n_words))
        config = EmConfig(prior=PRIOR_ONE_TO_MANY, rank_restrict=(ns, nt), threads=threads)
        with small_blocks(block, data):
            a = e_step_one_to_many(S, T, params, config)
        W = weight_matrix(S, T, params, ns, nt).T  # (targets, sources)
        got = dict(zip(a.trg.tolist(), zip(a.src.tolist(), a.weight.tolist())))
        for i in range(T.n_words):
            best = ranked(W, 1)[i][0] if i < nt else None
            if best is None or W[i, best] < 0.0:
                assert i not in got
            else:
                assert got[i] == (best, W[i, best])

    @settings(deadline=None, max_examples=150)
    @given(instances(), st.integers(1, 14), st.integers(1, 40), st.data())
    def test_evaluation(self, inst, k, block, data):
        """translate_batch, hubness and topn_neighbors rank by (-cosine, target id)."""
        S, T, params = inst
        ids = data.draw(st.lists(st.integers(0, S.n_words - 1), min_size=1, max_size=15))
        cos = cosine_matrix(S, T, params, ids)
        with small_blocks(block, data):
            top1 = translate_batch(params, S, T, ids)
            near = topn_neighbors(params, S, T, ids, k)
            counts = hubness(params, S, T, ids, min(k, T.n_words))
        assert top1.tolist() == [int(r[0]) for r in ranked(cos, 1)]
        assert near == [
            [(int(i), float(row[i])) for i in order] for row, order in zip(cos, ranked(cos, k))
        ]
        hub = np.bincount(
            np.concatenate(ranked(cos, min(k, T.n_words))), minlength=T.n_words
        )
        assert counts.tolist() == hub.tolist()


def score_top_k_with(Q, C, k, c_offset, threads, block, select):
    """score_top_k's (idx, val) bytes with both block constants patched."""
    with mock.patch.object(candidates, "BLOCK_ELEMENTS", block), \
            mock.patch.object(candidates, "_SELECT_ELEMENTS", select):
        idx, val = candidates.score_top_k(Q, C, k, c_offset=c_offset, threads=threads)
    return idx.dtype, idx.shape, idx.tobytes(), val.dtype, val.tobytes()


class TestSlicedSelection:
    """Offsetting and selecting a scored block slice by slice changes no bit.

    Inputs are random non-integer float64, so the scores are rounded like
    real ones.  The reference selects each block whole, as a slice of at
    least a block's scores does.
    """

    @settings(deadline=None, max_examples=150)
    @given(
        st.integers(1, 25),
        st.integers(1, 25),
        st.integers(1, 5),
        st.integers(1, 9),
        st.integers(1, 300),
        st.sampled_from([1, 3]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_slices_match_whole_blocks(self, nq, nc, d, k, block, threads, offset, seed):
        rng = np.random.default_rng(seed)
        Q = rng.standard_normal((d, nq))
        C = rng.standard_normal((d, nc))
        c_offset = rng.standard_normal(nc) if offset else None
        whole = score_top_k_with(Q, C, k, c_offset, threads, block, block + nc)
        for rows in (1, 3):
            assert score_top_k_with(Q, C, k, c_offset, threads, block, rows * nc) == whole

    @pytest.mark.parametrize("k", [1, 3, 4, 5, 20])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_default_slices_match_whole_blocks(self, k, threads):
        """Real block and slice sizes: many slices per block, a ragged last one."""
        rng = np.random.default_rng(k)
        Q = rng.standard_normal((50, 700))
        C = rng.standard_normal((50, 3001))
        c_offset = rng.standard_normal(3001)
        block = 300 * 3001
        assert candidates._SELECT_ELEMENTS // 3001 < 300
        whole = score_top_k_with(Q, C, k, c_offset, threads, block, block)
        assert score_top_k_with(
            Q, C, k, c_offset, threads, block, candidates._SELECT_ELEMENTS
        ) == whole
