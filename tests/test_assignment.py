import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_dense, random_sparse_graph
from lexmatch.assignment import (
    Matching,
    brute_force_matching,
    hungarian_dense,
    solve_sparse_lap,
)
from lexmatch.candidates import CandidateGraph


class TestMatching:
    def test_from_pairs_sorts_and_sums(self):
        """Edges come out target-sorted; the total is order-independent."""
        m = Matching.from_pairs(3, 3, [(2, 0, 0.3), (0, 1, 0.5)])
        assert m.edges == [(0, 1), (2, 0)]
        assert m.edge_weights == [0.5, 0.3]
        assert m.total_weight == pytest.approx(0.8)
        m2 = Matching.from_pairs(3, 3, [(0, 1, 0.5), (2, 0, 0.3)])
        assert m2.total_weight == m.total_weight

    def test_degree_cap_enforced(self):
        m = Matching.from_pairs(2, 2, [(0, 0, 1.0), (1, 0, 1.0)])
        with pytest.raises(ValueError, match="source 0"):
            m.assert_degrees(1, 1)
        m.assert_degrees(1, 2)

    def test_unmatched_helpers(self):
        m = Matching.from_pairs(3, 4, [(1, 2, 1.0)])
        assert m.matched_targets() == {1}
        assert m.matched_sources() == {2}
        assert m.unmatched_targets().tolist() == [0, 2]
        assert m.unmatched_sources().tolist() == [0, 1, 3]


class TestHungarianDense:
    def test_diagonal_wins(self):
        """[[2,1],[1,2]] pairs the diagonal for total 4."""
        m = hungarian_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert m.edges == [(0, 0), (1, 1)]
        assert m.total_weight == pytest.approx(4.0)

    def test_antidiagonal_wins(self):
        """[[1,3],[3,1]] pairs the antidiagonal for total 6."""
        m = hungarian_dense(np.array([[1.0, 3.0], [3.0, 1.0]]))
        assert m.edges == [(0, 1), (1, 0)]
        assert m.total_weight == pytest.approx(6.0)

    def test_dominant_diagonal(self):
        """diag(5,5,5) over zeros matches the diagonal, total 15."""
        m = hungarian_dense(np.diag([5.0, 5.0, 5.0]))
        assert m.edges == [(0, 0), (1, 1), (2, 2)]
        assert m.total_weight == pytest.approx(15.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hungarian_dense(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            hungarian_dense(np.array([[1.0, np.inf], [0.0, 1.0]]))


class TestSolveSparseLap:
    def test_single_edge(self):
        """One edge in a 3x3 graph is taken; everything else stays unmatched."""
        g = CandidateGraph.from_lists(3, 3, [[(0, 1.5)], [], []])
        m = solve_sparse_lap(g)
        assert m.edges == [(0, 0)]
        assert m.total_weight == pytest.approx(1.5)
        assert m.unmatched_targets().tolist() == [1, 2]

    def test_dense_two_by_two_matches_oracle(self):
        """The sparse route agrees with the dense oracle on [[2,1],[1,2]]."""
        W = np.array([[2.0, 1.0], [1.0, 2.0]])
        m = solve_sparse_lap(graph_from_dense(W))
        oracle = hungarian_dense(W)
        assert m.edges == oracle.edges
        assert m.total_weight == pytest.approx(4.0)

    def test_empty_graph(self):
        g = CandidateGraph.from_lists(2, 2, [[], []])
        m = solve_sparse_lap(g)
        assert m.edges == []
        assert m.total_weight == 0.0

    def test_disjoint_edges_all_selected(self):
        """One edge per source on distinct targets conflicts with nothing."""
        g = CandidateGraph.from_lists(3, 3, [[(2, 0.2)], [(0, 0.4)], [(1, 0.6)]])
        m = solve_sparse_lap(g)
        assert m.edges == [(0, 1), (1, 2), (2, 0)]
        assert m.total_weight == pytest.approx(1.2)

    def test_rejects_negative_weights(self):
        g = CandidateGraph.from_lists(1, 1, [[(0, -0.5)]])
        with pytest.raises(ValueError, match="negative"):
            solve_sparse_lap(g)

    def test_rejects_duplicate_edges(self):
        g = CandidateGraph.from_lists(1, 2, [[(0, 0.5), (0, 0.7)]])
        with pytest.raises(ValueError):
            solve_sparse_lap(g)

    def test_equal_weight_tie_takes_lower_target(self):
        """A source indifferent between two targets lands on the lower id."""
        g = CandidateGraph.from_lists(1, 2, [[(0, 0.5), (1, 0.5)]])
        m = solve_sparse_lap(g)
        assert m.edges == [(0, 0)]

    def test_agrees_with_dense_oracle(self):
        """Strictly positive dense instances give the same total as the oracle."""
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            W = rng.uniform(0.01, 1.0, size=(n, n))
            m = solve_sparse_lap(graph_from_dense(W))
            oracle = hungarian_dense(W)
            assert m.total_weight == pytest.approx(oracle.total_weight, abs=1e-9)
            m.assert_degrees(1, 1)

    @settings(deadline=None, max_examples=80)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_agrees_with_brute_force(self, seed):
        """Random sparse instances match exhaustive enumeration exactly."""
        rng = np.random.default_rng(seed)
        n_src = int(rng.integers(1, 6))
        n_trg = int(rng.integers(1, 6))
        n_edges = int(rng.integers(0, n_src * n_trg + 1))
        g = random_sparse_graph(n_src, n_trg, n_edges, rng)
        fast = solve_sparse_lap(g)
        slow = brute_force_matching(g)
        assert fast.total_weight == slow.total_weight
        assert fast.edges == slow.edges

    @settings(deadline=None, max_examples=80)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 6))
    def test_edgeless_sources_change_nothing(self, seed, pad):
        """Sources without edges, inserted anywhere, leave the matching bit-equal.

        Square dense instances must also still agree with the dense oracle.
        """
        rng = np.random.default_rng(seed)
        if rng.integers(2):
            n = int(rng.integers(1, 9))
            W = rng.uniform(0.01, 1.0, size=(n, n))
            g = graph_from_dense(W)
        else:
            W = None
            n_src = int(rng.integers(1, 9))
            n_trg = int(rng.integers(1, 9))
            n_edges = int(rng.integers(0, n_src * n_trg + 1))
            g = random_sparse_graph(n_src, n_trg, n_edges, rng)
        new_id = np.sort(rng.choice(g.n_src + pad, size=g.n_src, replace=False))
        lists = [[] for _ in range(g.n_src + pad)]
        for j in range(g.n_src):
            t, w = g.edges_of(j)
            lists[new_id[j]] = list(zip(t.tolist(), w.tolist()))
        padded = CandidateGraph.from_lists(g.n_src + pad, g.n_trg, lists)
        m = solve_sparse_lap(g)
        mp = solve_sparse_lap(padded)
        assert mp.edges == [(i, int(new_id[j])) for i, j in m.edges]
        assert mp.edge_weights == m.edge_weights
        assert mp.total_weight == m.total_weight
        if W is not None:
            oracle = hungarian_dense(W)
            assert mp.total_weight == pytest.approx(oracle.total_weight, abs=1e-9)


class TestBruteForce:
    def test_two_by_two(self):
        """[[2,1],[1,2]] enumerates to total 4."""
        m = brute_force_matching(graph_from_dense(np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert m.total_weight == pytest.approx(4.0)

    def test_beats_every_feasible_subset(self):
        """The enumerated optimum outweighs every valid edge subset."""
        rng = np.random.default_rng(9)
        g = random_sparse_graph(3, 3, 7, rng)
        best = brute_force_matching(g)
        edges = list(g.iter_edges())
        for mask in range(1 << len(edges)):
            chosen = [edges[b] for b in range(len(edges)) if mask >> b & 1]
            if len({i for i, _, _ in chosen}) < len(chosen):
                continue
            if len({j for _, j, _ in chosen}) < len(chosen):
                continue
            assert sum(w for _, _, w in chosen) <= best.total_weight + 1e-12

    def test_size_cap(self):
        g = CandidateGraph.from_lists(9, 8, [[] for _ in range(9)])
        with pytest.raises(ValueError):
            brute_force_matching(g)
