import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph, graph_edges, graph_from_dense, pairs, random_sparse_graph
from lexmatch.assignment import (
    Matching,
    brute_force_matching,
    hungarian_dense,
    solve_sparse_lap,
)
from lexmatch.em import PRIOR_CAPS, PRIOR_ONE_TO_TWO, PRIOR_TWO_TO_TWO, duplicate_and_merge


class TestMatching:
    def test_pairs_sorted_and_summed(self):
        """Pairs come out target-sorted; the total is order-independent."""
        m = Matching(3, 3, [2, 0], [0, 1], [0.3, 0.5])
        assert pairs(m) == [(0, 1), (2, 0)]
        assert m.weight.tolist() == [0.5, 0.3]
        assert m.total_weight == pytest.approx(0.8)
        m2 = Matching(3, 3, [0, 2], [1, 0], [0.5, 0.3])
        assert m2.total_weight == m.total_weight

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Matching(3, 3, [0, 1], [1, 0], [0.5])

    def test_degree_cap_enforced(self):
        m = Matching(2, 2, [0, 1], [0, 0], [1.0, 1.0])
        with pytest.raises(ValueError, match="source 0"):
            m.assert_degrees(1, 1)
        m.assert_degrees(1, 2)
        m.assert_degrees(1, None)
        with pytest.raises(ValueError, match="target 0"):
            Matching(2, 2, [0, 0], [0, 1], [1.0, 1.0]).assert_degrees(1, None)
        with pytest.raises(ValueError, match="range"):
            Matching(2, 2, [2], [0], [1.0]).assert_degrees(None, None)

    def test_unmatched_helpers(self):
        m = Matching(3, 4, [1], [2], [1.0])
        assert set(m.trg.tolist()) == {1}
        assert set(m.src.tolist()) == {2}
        assert m.unmatched_targets().tolist() == [0, 2]
        assert np.setdiff1d(np.arange(m.n_src), m.src).tolist() == [0, 1, 3]


class TestHungarianDense:
    def test_diagonal_wins(self):
        """[[2,1],[1,2]] pairs the diagonal for total 4."""
        m = hungarian_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert pairs(m) == [(0, 0), (1, 1)]
        assert m.total_weight == pytest.approx(4.0)

    def test_antidiagonal_wins(self):
        """[[1,3],[3,1]] pairs the antidiagonal for total 6."""
        m = hungarian_dense(np.array([[1.0, 3.0], [3.0, 1.0]]))
        assert pairs(m) == [(0, 1), (1, 0)]
        assert m.total_weight == pytest.approx(6.0)

    def test_dominant_diagonal(self):
        """diag(5,5,5) over zeros matches the diagonal, total 15."""
        m = hungarian_dense(np.diag([5.0, 5.0, 5.0]))
        assert pairs(m) == [(0, 0), (1, 1), (2, 2)]
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
        g = graph(3, 3, [[(0, 1.5)], [], []])
        m = solve_sparse_lap(g)
        assert pairs(m) == [(0, 0)]
        assert m.total_weight == pytest.approx(1.5)
        assert m.unmatched_targets().tolist() == [1, 2]

    def test_dense_two_by_two_matches_oracle(self):
        """The sparse route agrees with the dense oracle on [[2,1],[1,2]]."""
        W = np.array([[2.0, 1.0], [1.0, 2.0]])
        m = solve_sparse_lap(graph_from_dense(W))
        oracle = hungarian_dense(W)
        assert pairs(m) == pairs(oracle)
        assert m.total_weight == pytest.approx(4.0)

    def test_empty_graph(self):
        g = graph(2, 2, [[], []])
        m = solve_sparse_lap(g)
        assert pairs(m) == []
        assert m.total_weight == 0.0

    def test_disjoint_edges_all_selected(self):
        """One edge per source on distinct targets conflicts with nothing."""
        g = graph(3, 3, [[(2, 0.2)], [(0, 0.4)], [(1, 0.6)]])
        m = solve_sparse_lap(g)
        assert pairs(m) == [(0, 1), (1, 2), (2, 0)]
        assert m.total_weight == pytest.approx(1.2)

    def test_rejects_negative_weights(self):
        g = graph(1, 1, [[(0, -0.5)]])
        with pytest.raises(ValueError, match="negative"):
            solve_sparse_lap(g)

    def test_rejects_duplicate_edges(self):
        g = graph(1, 2, [[(0, 0.5), (0, 0.7)]])
        with pytest.raises(ValueError):
            solve_sparse_lap(g)

    def test_equal_weight_tie_takes_lower_target(self):
        """A source indifferent between two targets lands on the lower id."""
        g = graph(1, 2, [[(0, 0.5), (1, 0.5)]])
        m = solve_sparse_lap(g)
        assert pairs(m) == [(0, 0)]

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
        assert pairs(fast) == pairs(slow)

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
        padded = graph(g.n_src + pad, g.n_trg, lists)
        m = solve_sparse_lap(g)
        mp = solve_sparse_lap(padded)
        assert pairs(mp) == [(i, int(new_id[j])) for i, j in pairs(m)]
        assert mp.weight.tolist() == m.weight.tolist()
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
        edges = graph_edges(g)
        for mask in range(1 << len(edges)):
            chosen = [edges[b] for b in range(len(edges)) if mask >> b & 1]
            if len({i for i, _, _ in chosen}) < len(chosen):
                continue
            if len({j for _, j, _ in chosen}) < len(chosen):
                continue
            assert sum(w for _, _, w in chosen) <= best.total_weight + 1e-12

    def test_size_cap(self):
        g = graph(9, 8, [[] for _ in range(9)])
        with pytest.raises(ValueError):
            brute_force_matching(g)


def tie_heavy_graph(seed, max_side):
    """Random graph with weights in {0, 0.5, 1, 1.5}; about a quarter of sources edgeless.

    A zero-weight edge ties with its source's stay-unmatched option, and
    half-integer sums are exact, so every tie-break of the solver shows in
    which pairs it returns.
    """
    rng = np.random.default_rng(seed)
    n_src, n_trg = rng.integers(1, max_side + 1, size=2).tolist()
    lists = []
    for _ in range(n_src):
        deg = 0 if rng.random() < 0.25 else int(rng.integers(1, n_trg + 1))
        t = rng.choice(n_trg, size=deg, replace=False).tolist()
        lists.append(list(zip(t, (rng.integers(0, 4, size=deg) / 2).tolist())))
    return graph(n_src, n_trg, lists)


# sha256 of the solver's trg, src and weight bytes on tie_heavy_graph(seed, 16)
# and on its 1:2 and 2:2 expansions, for seeds 0..39; recorded from the
# dict-based solver that preceded the first-pop exit
TIE_BREAK_DIGESTS = [
    "03e719e292c90a1515ea0f622c7545e573e955fcb0e371b3a3ce7dbdb0a4e73a",
    "e78811903cff7100a67d7d8967749ce8549f81cd5630d8a366402573e2b896b1",
    "ffd1b3571c35498f2215128c54c22d5c4973a2df88c3e092537883fe93fb69ad",
    "5ccdc0e94d31395551bf0068545a9b57dd5c28e3ef6ccee5985b8f77d0da0c6f",
    "5f9feed0a62b8a00b9da60d60865b9791cd866c04b3b547d4dca30b2501945d6",
    "1c30b8438440da63eab3956bb8eb0faf33d1721b31e7a095f58f72034363f6c8",
    "ca0f315f30795e75c74aa369a496ed5ec7dab8b03b89172dbaa6c18fceeaeef0",
    "a43918fe9c6ad34f7abd73c5bee5de1dc6b82611adaefc2a161ac4b39cc35a35",
    "0e0c3b0ab65a94ce5c7dff2662ac01dd2c6dee1d23027df7ce306be52e0de3c4",
    "d27bf96f7bfeddc0270f87009d6123c8f86322f38aac9348a514ee38cdc59eb2",
    "0cc1ab716286dbdb7ff09d28c7b0a019ebe59dab93a7e57f752a2f383beb09aa",
    "8f807b80d6e9bde7a83f2232791eaf20a96135041abb9b7e04068463a2e73af0",
    "0967a6c6b4314ffdd3976aaea6707008959f4e38a647efab5b41eb42f985b769",
    "8e0544e1cd19463adabcb7a2ed3c47616fede628e15baaa991fa2d8767e4333a",
    "0241fbe55a9a405dfd82f792dc80d40eb748592e5c5f1ec3e61a4162505106cf",
    "189c258030634e08ad39bbb65db83f76a4eeb9edac78d6e90c7620135fabb0ce",
    "5eaec834c39895b7cb1ee7665b4702391e243bbf09b205c778af60cd49e5ba7d",
    "1bf049ee9a0014f30d72c25409ec70a242ca86143f8d2a8fdec44816ba182683",
    "95961d96d09ed5c0444db0e0e15034f0d8ef3c456db0ef72771665a4d64ead1d",
    "05a67a7e453791b5dcc03bdd718ba0815b4b85b353380da3a3714eff8b3bd062",
    "12c630092c05cc6a87b72765ebbf740ee1e60385b4c85f245be57b17c61c48c9",
    "f03e45f7999330331fa419918f979dcae95762088d50f764b93aa6586e98a3ee",
    "de3fc2ddb260f486930c6a627b81a2e2e0f3c68e333cfbc2f2d8ce3c56a01a88",
    "42b55f5bae11331c4edda62294bf5dd51e109cb6724362393ae476b54c34c712",
    "06f5a0159797fdfb1da21b97084464013b8b750713982f64e83a492dfee03ddd",
    "97871bd9a5b2fb0abbbaef16bbfa3fe195534254907fac591f3e072229de2086",
    "dcfcde92599b941657b66ee436005a7bb5ddee7590c8ec8e24167b45d1462b58",
    "b7831677c8630d202e71a8c11f9484d5d77a587dc92cc432cf8bdd6978a0899d",
    "c95166acfd410ccb77bc32da847bbbf5c6ea98d6cabdc227b47c03cddf5174cf",
    "5b131555335bd24af23150e78d35a182f85a2e13b919395114d3bd42fbab5eed",
    "6f073e0a59ca4f54d39ec9124338cf45290483927a3d8e330dabd55d2368f182",
    "11f4ccb9f56236f2b59c140073f0b504bfe385f2f1e2a7217aa07c7fbe987ede",
    "94a5c7504f87b694578ac26dcc8a12524976bced2f3d0f82537335a2178a541f",
    "468129a825f0cfb72c3bb72361fabb6a4239696f76d3128f31142988e2d5aa68",
    "c011bf64fe4b70e14aacef79cc6f1bbf39d21552d930c0e0ab75e1e13e573ca4",
    "e1e0f601db326cfad5f42de6e06d8d264117286e5375eb26b692f0cde97d4f71",
    "7e5358a87780828f9ea726b025447edf4ff313e5bb4d6e09b52f979483e13ab0",
    "4ca08ee985f0bae981de241fde3d03cc998d818af3a9338a3ab96356982661bd",
    "ef1a92435f6845ffbbfd49e01992efe701b12707059bf7bb4a2b5a3a597d08b3",
    "b3b527458297a97ddb688658a4cd4e828aad6054a12527d601f05e54c8556203",
]


@pytest.mark.parametrize("seed", range(len(TIE_BREAK_DIGESTS)))
def test_tie_breaks_reproduce_recorded_matchings(seed):
    """Tie-heavy solves, 1:1, 1:2 and 2:2, return the recorded pair bytes."""
    g = tie_heavy_graph(seed, 16)
    h = hashlib.sha256()
    expansions = [duplicate_and_merge(g, p)[0] for p in (PRIOR_ONE_TO_TWO, PRIOR_TWO_TO_TWO)]
    for m in map(solve_sparse_lap, [g, *expansions]):
        h.update(m.trg.tobytes() + m.src.tobytes() + m.weight.tobytes())
    assert h.hexdigest() == TIE_BREAK_DIGESTS[seed]


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_half_integer_weights_reach_the_optimum(seed):
    """Tied weights still give the brute-force total; merged priors keep their caps."""
    g = tie_heavy_graph(seed, 8)
    assert solve_sparse_lap(g).total_weight == brute_force_matching(g).total_weight
    for prior in (PRIOR_ONE_TO_TWO, PRIOR_TWO_TO_TWO):
        expanded, merge = duplicate_and_merge(g, prior)
        merge(solve_sparse_lap(expanded)).assert_degrees(*PRIOR_CAPS[prior])
