import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    edges_of,
    graph,
    graph_edges,
    random_orthogonal,
    random_unit_matrix,
    unit_columns,
)
from lexmatch.candidates import build_candidates, edge_weight
from lexmatch.em import ModelParams

IDENT2 = ModelParams(np.eye(2), np.zeros(2))


def naive_topk(S, T, params, k):
    """Per-source exact top-k by scalar edge weight, negatives pruned after."""
    out = []
    for j in range(S.data.shape[1]):
        scored = [
            (i, edge_weight(T.data[:, i], S.data[:, j], params))
            for i in range(T.data.shape[1])
        ]
        scored.sort(key=lambda e: (-e[1], e[0]))
        out.append([(i, w) for i, w in scored[:k] if w >= 0.0])
    return out


class TestEdgeWeight:
    def test_perfect_match_is_half(self):
        """Unit t equal to the mapped source, mu = 0, scores 0.5."""
        t = np.array([1.0, 0.0])
        s = np.array([1.0, 0.0])
        assert edge_weight(t, s, IDENT2) == pytest.approx(0.5, abs=1e-15)

    def test_orthogonal_pair_is_minus_half(self):
        """Unit t orthogonal to the mapped source, mu = 0, scores -0.5."""
        t = np.array([1.0, 0.0])
        s = np.array([0.0, 1.0])
        assert edge_weight(t, s, IDENT2) == pytest.approx(-0.5, abs=1e-15)

    def test_offset_reference_point(self):
        """t=(1,0), mapped source (0,1), mu=(1,0) gives -1."""
        params = ModelParams(np.eye(2), np.array([1.0, 0.0]))
        t = np.array([1.0, 0.0])
        s = np.array([0.0, 1.0])
        assert edge_weight(t, s, params) == pytest.approx(-1.0, abs=1e-15)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_unit_pair_reduces_to_shifted_cosine(self, seed):
        """For unit vectors and mu=0 the weight equals cosine minus one half."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 12))
        omega = random_orthogonal(d, rng)
        params = ModelParams(omega, np.zeros(d))
        t = unit_columns(rng.standard_normal((d, 1)))[:, 0]
        s = unit_columns(rng.standard_normal((d, 1)))[:, 0]
        cos = float(t @ (omega @ s))
        assert edge_weight(t, s, params) == pytest.approx(cos - 0.5, abs=1e-9)


class TestBuildCandidates:
    def params(self, d, rng):
        return ModelParams(random_orthogonal(d, rng), 0.05 * rng.standard_normal(d))

    def test_matches_scalar_reference(self):
        """The blocked builder reproduces the per-edge scalar definition."""
        rng = np.random.default_rng(42)
        S = random_unit_matrix(6, 9, rng)
        T = random_unit_matrix(6, 7, rng)
        params = self.params(6, rng)
        g = build_candidates(S, T, params, k=3)
        expected = naive_topk(S, T, params, 3)
        for j in range(9):
            targets, weights = edges_of(g, j)
            assert targets.tolist() == [i for i, _ in expected[j]]
            np.testing.assert_allclose(weights, [w for _, w in expected[j]], atol=1e-12)

    def test_large_k_degenerates_to_dense(self):
        """k of at least n_trg keeps every non-negative edge."""
        rng = np.random.default_rng(7)
        S = random_unit_matrix(4, 5, rng)
        T = random_unit_matrix(4, 6, rng)
        params = self.params(4, rng)
        g = build_candidates(S, T, params, k=6)
        g_big = build_candidates(S, T, params, k=50)
        assert graph_edges(g) == graph_edges(g_big)
        assert g.n_edges == sum(len(l) for l in naive_topk(S, T, params, 6))

    def test_k_one_is_argmax(self):
        """k=1 keeps each source's single best-scoring target."""
        rng = np.random.default_rng(3)
        S = random_unit_matrix(5, 8, rng)
        T = random_unit_matrix(5, 6, rng)
        params = self.params(5, rng)
        g = build_candidates(S, T, params, k=1)
        for j in range(8):
            targets, weights = edges_of(g, j)
            scored = [
                edge_weight(T.data[:, i], S.data[:, j], params) for i in range(6)
            ]
            best = int(np.argmax(scored))
            if scored[best] < 0.0:
                assert targets.size == 0
            else:
                assert targets.tolist() == [best]
                assert weights[0] == pytest.approx(scored[best], abs=1e-12)

    def test_all_negative_gives_empty_graph(self):
        """When every weight is negative the edge set is empty."""
        S = random_unit_matrix(2, 3, np.random.default_rng(0))
        S.data[:] = np.array([[1.0], [0.0]])
        T_data = np.tile(np.array([[0.0], [1.0]]), (1, 4))
        from lexmatch.embeddings import EmbeddingMatrix

        T = EmbeddingMatrix(2, T_data)
        g = build_candidates(S, T, IDENT2, k=2)
        assert g.n_edges == 0

    def test_zero_weight_edge_survives_pruning(self):
        """Only strictly negative weights are pruned; exact zeros stay."""
        from lexmatch.embeddings import EmbeddingMatrix

        S = EmbeddingMatrix(2, np.array([[1.0], [1.0]]))
        T = EmbeddingMatrix(2, np.array([[1.0], [0.0]]))
        assert edge_weight(T.data[:, 0], S.data[:, 0], IDENT2) == 0.0
        g = build_candidates(S, T, IDENT2, k=1)
        assert graph_edges(g) == [(0, 0, 0.0)]

    def test_boundary_ties_keep_lower_ids(self):
        """Equal scores straddling the k-th slot resolve to lower target ids."""
        from lexmatch.embeddings import EmbeddingMatrix

        S = EmbeddingMatrix(2, np.array([[1.0], [0.0]]))
        tied = np.array([0.8, 0.6])
        T = EmbeddingMatrix(
            2, np.column_stack([np.array([1.0, 0.0]), tied, tied, tied])
        )
        g = build_candidates(S, T, IDENT2, k=2)
        targets, weights = edges_of(g, 0)
        assert targets.tolist() == [0, 1]
        np.testing.assert_allclose(weights, [0.5, 0.3], atol=1e-12)

    def test_restriction_limits_participation(self):
        """Row/column restriction excludes high-id words from both sides."""
        rng = np.random.default_rng(11)
        S = random_unit_matrix(4, 10, rng)
        T = random_unit_matrix(4, 9, rng)
        params = self.params(4, rng)
        g = build_candidates(S, T, params, k=3, restrict=(6, 5))
        assert g.n_src == 10 and g.n_trg == 9
        for j in range(6, 10):
            targets, _ = edges_of(g, j)
            assert targets.size == 0
        assert g.n_edges == 0 or int(g.targets.max()) < 5
        sub = build_candidates(
            type(S)(4, S.data[:, :6]), type(T)(4, T.data[:, :5]), params, k=3
        )
        assert graph_edges(g) == graph_edges(sub)

    def test_threads_do_not_change_output(self):
        """Multi-threaded assembly is byte-identical to single-threaded."""
        rng = np.random.default_rng(5)
        S = random_unit_matrix(8, 40, rng)
        T = random_unit_matrix(8, 30, rng)
        params = self.params(8, rng)
        g1 = build_candidates(S, T, params, k=3, threads=1)
        g4 = build_candidates(S, T, params, k=3, threads=4)
        assert np.array_equal(g1.indptr, g4.indptr)
        assert np.array_equal(g1.targets, g4.targets)
        assert np.array_equal(g1.weights, g4.weights)


class TestCandidateGraph:
    def test_validate_rejects_out_of_range_target(self):
        g = graph(1, 2, [[(5, 1.0)]])
        with pytest.raises(ValueError):
            g.validate()

    def test_duplicate_edge_detected(self):
        g = graph(1, 3, [[(1, 0.5), (1, 0.7)]])
        with pytest.raises(ValueError):
            g.check_no_duplicates()

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_duplicate_check_matches_lexsort(self, n_src, n_trg, data):
        """Raises exactly when a (source, target) lexsort finds a repeated
        edge, naming the same first one."""
        lists = [
            data.draw(st.lists(st.integers(0, n_trg - 1), max_size=4)) for _ in range(n_src)
        ]
        g = graph(n_src, n_trg, [[(i, 1.0) for i in l] for l in lists])
        rows = np.repeat(np.arange(n_src, dtype=np.int64), np.diff(g.indptr))
        order = np.lexsort((g.targets, rows))
        r, t = rows[order], g.targets[order]
        dup = np.flatnonzero((r[1:] == r[:-1]) & (t[1:] == t[:-1]))
        if dup.size:
            e = dup[0]
            with pytest.raises(ValueError) as exc:
                g.check_no_duplicates()
            assert str(exc.value) == f"duplicate edge (target {t[e]}, source {r[e]})"
        else:
            g.check_no_duplicates()

    def test_edges_of_order(self):
        """Each source's edges keep their adjacency order."""
        g = graph(2, 3, [[(2, 0.9), (0, 0.1)], [(1, 0.4)]])
        assert graph_edges(g) == [(2, 0, 0.9), (0, 0, 0.1), (1, 1, 0.4)]
