import logging
import zipfile
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    edges_of,
    graph,
    graph_from_dense,
    pairs,
    planted_instance,
    random_orthogonal,
    random_sparse_graph,
    random_unit_matrix,
    unit_columns,
)
from lexmatch.assignment import Matching, solve_sparse_lap
from lexmatch.em import (
    PRIOR_CAPS,
    PRIOR_ONE_TO_MANY,
    PRIOR_ONE_TO_ONE,
    PRIOR_ONE_TO_TWO,
    PRIOR_TWO_TO_TWO,
    EmCollapseError,
    EmConfig,
    Model,
    ModelParams,
    TrainedSide,
    _pin_seed_pairs,
    duplicate_and_merge,
    e_step,
    e_step_one_to_many,
    load_model,
    m_step,
    procrustes,
    run_em,
    save_model,
)
from lexmatch.embeddings import NORM_UNIT, NORM_UNIT_CENTER_UNIT, EmbeddingMatrix, Lexicon
from lexmatch.seeds import PROVENANCE_TSV, SeedDictionary
from oracles import brute_force_matching, edge_weight_reference, run_em_reference


def seed_of(pairs):
    return SeedDictionary(pairs=pairs, provenance=PROVENANCE_TSV, n_requested=len(pairs))


class TestProcrustes:
    def test_identity_when_sides_equal(self):
        """T_m equal to a full-rank S_m is already aligned."""
        rng = np.random.default_rng(42)
        S_m = rng.standard_normal((4, 9))
        np.testing.assert_allclose(procrustes(S_m, S_m), np.eye(4), atol=1e-12)

    def test_quarter_turn(self):
        """Basis pairs rotated 90 degrees recover the exact rotation matrix."""
        S_m = np.eye(2)
        T_m = np.array([[0.0, -1.0], [1.0, 0.0]])
        np.testing.assert_allclose(
            procrustes(S_m, T_m), np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-12
        )

    def test_recovers_planted_rotation(self):
        """T_m built as R S_m gives back R."""
        rng = np.random.default_rng(7)
        R = random_orthogonal(10, rng)
        S_m = rng.standard_normal((10, 40))
        np.testing.assert_allclose(procrustes(S_m, R @ S_m), R, atol=1e-6)

    def test_result_is_orthogonal(self):
        rng = np.random.default_rng(3)
        omega = procrustes(rng.standard_normal((6, 20)), rng.standard_normal((6, 20)))
        np.testing.assert_allclose(omega.T @ omega, np.eye(6), atol=1e-10)


class TestCentroid:
    """m_step's mu: the mean of the targets its pairs leave unmatched."""

    @staticmethod
    def m_step_pairing(T, trg, prev_mu):
        """m_step's params when targets trg pair with copies of themselves."""
        S = EmbeddingMatrix(T.dim, T.data[:, trg])
        m = Matching(T.n_words, len(trg), trg, range(len(trg)), np.ones(len(trg)))
        return m_step(S, T, m, ModelParams(np.eye(T.dim), prev_mu))

    def test_single_point(self):
        T = EmbeddingMatrix(2, np.array([[1.0, 3.0], [2.0, 4.0]]))
        params = self.m_step_pairing(T, [0], np.zeros(2))
        np.testing.assert_array_equal(params.mu, [3.0, 4.0])

    def test_mean_of_two(self):
        """The bits of the mean over the unmatched columns, in id order."""
        T = random_unit_matrix(5, 7, np.random.default_rng(11))
        params = self.m_step_pairing(T, [1, 3, 4, 5, 6], np.zeros(5))
        assert params.mu.tobytes() == T.data[:, [0, 2]].mean(axis=1).tobytes()

    def test_empty_keeps_previous(self):
        """No unmatched targets leaves the reference point where it was."""
        T = EmbeddingMatrix(2, np.eye(2))
        prev = np.array([0.25, -0.5])
        out = self.m_step_pairing(T, [0, 1], prev).mu
        np.testing.assert_array_equal(out, prev)
        out[0] = 99.0
        assert prev[0] == 0.25

    def test_out_of_range_rejected(self):
        T = EmbeddingMatrix(2, np.eye(2))
        m = Matching(2, 1, [5], [0], [1.0])
        with pytest.raises(IndexError):
            m_step(T, T, m, ModelParams(np.eye(2), np.zeros(2)))


class TestEStepMatching:
    def test_identity_instance(self):
        """Identical 2-word sides pair up on the diagonal with weight 0.5 each."""
        S = EmbeddingMatrix(2, np.eye(2))
        T = EmbeddingMatrix(2, np.eye(2))
        params = ModelParams(np.eye(2), np.zeros(2))
        m = e_step(S, T, params, EmConfig(k=2))
        assert pairs(m) == [(0, 0), (1, 1)]
        np.testing.assert_allclose(m.weight, [0.5, 0.5], atol=1e-12)

    def test_all_pruned_gives_empty(self):
        """Cross cosines below one half leave no candidate edges."""
        S = EmbeddingMatrix(2, np.array([[1.0], [0.0]]))
        T = EmbeddingMatrix(2, np.array([[0.0], [1.0]]))
        params = ModelParams(np.eye(2), np.zeros(2))
        m = e_step(S, T, params, EmConfig(k=1))
        assert pairs(m) == []

    def test_matches_brute_force_total(self):
        """Small dense instances agree with exhaustive enumeration."""
        rng = np.random.default_rng(42)
        for _ in range(10):
            S = random_unit_matrix(4, 5, rng)
            T = random_unit_matrix(4, 5, rng)
            params = ModelParams(random_orthogonal(4, rng), np.zeros(4))
            config = EmConfig(k=5)
            m = e_step(S, T, params, config)
            from lexmatch.candidates import build_candidates

            g = build_candidates(S, T, params, k=5)
            assert m.total_weight == brute_force_matching(g).total_weight


class TestEStepOneToMany:
    def params2(self):
        return ModelParams(np.eye(2), np.zeros(2))

    def test_shared_best_source(self):
        """Two targets with the same best source both align to it."""
        S = EmbeddingMatrix(2, np.array([[1.0, 0.0], [0.0, 1.0]]))
        t = unit_columns(np.array([[0.95, 0.9], [0.31224989991991992, 0.43588989435406733]]))
        T = EmbeddingMatrix(2, t)
        a = e_step_one_to_many(S, T, self.params2(), EmConfig(k=1, prior=PRIOR_ONE_TO_MANY))
        assert a.src.tolist() == [0, 0]

    def test_negative_best_stays_unaligned(self):
        """A target whose best weight is negative aligns to nothing."""
        S = EmbeddingMatrix(2, np.array([[1.0], [0.0]]))
        T = EmbeddingMatrix(2, unit_columns(np.array([[0.3], [0.9539392014169456]])))
        a = e_step_one_to_many(S, T, self.params2(), EmConfig(k=1, prior=PRIOR_ONE_TO_MANY))
        assert len(a) == 0

    def test_single_pair(self):
        S = EmbeddingMatrix(2, unit_columns(np.array([[0.8], [0.6]])))
        T = EmbeddingMatrix(2, unit_columns(np.array([[0.8], [0.6]])))
        a = e_step_one_to_many(S, T, self.params2(), EmConfig(k=1, prior=PRIOR_ONE_TO_MANY))
        assert a.src.tolist() == [0]
        assert len(a) == 1

    def test_contrast_with_matching(self):
        """The matching model forbids the duplication one-to-many permits."""
        S = EmbeddingMatrix(2, np.array([[1.0, 0.0], [0.0, 1.0]]))
        t = unit_columns(np.array([[0.95, 0.9], [0.31224989991991992, 0.43588989435406733]]))
        T = EmbeddingMatrix(2, t)
        cfg = EmConfig(k=2)
        m = e_step(S, T, self.params2(), cfg)
        srcs = [j for _, j in pairs(m)]
        assert len(srcs) == len(set(srcs))


class TestMStep:
    def test_identity_assignment(self):
        """Matching identical sides leaves omega at identity and mu untouched."""
        rng = np.random.default_rng(42)
        S = random_unit_matrix(3, 6, rng)
        T = EmbeddingMatrix(3, S.data.copy())
        m = Matching(6, 6, range(6), range(6), [0.5] * 6)
        prev = ModelParams(random_orthogonal(3, rng), np.array([0.1, 0.2, 0.3]))
        params = m_step(S, T, m, prev)
        np.testing.assert_allclose(params.omega, np.eye(3), atol=1e-10)
        np.testing.assert_array_equal(params.mu, prev.mu)

    def test_rotation_and_unmatched_centroid(self):
        """Matched pairs pin the rotation; the unmatched target becomes mu."""
        rng = np.random.default_rng(5)
        R = random_orthogonal(2, rng)
        S = random_unit_matrix(2, 2, rng)
        t_u = np.array([0.6, -0.8])
        T = EmbeddingMatrix(2, np.column_stack([R @ S.data, t_u]))
        m = Matching(3, 2, [0, 1], [0, 1], [1.0, 1.0])
        params = m_step(S, T, m, ModelParams(np.eye(2), np.zeros(2)))
        np.testing.assert_allclose(params.omega, R, atol=1e-10)
        np.testing.assert_allclose(params.mu, t_u, atol=1e-12)

    def test_alignment_repeats_source_column(self):
        """One-to-many pairs enter the fit once per target, source repeated."""
        rng = np.random.default_rng(11)
        S = random_unit_matrix(3, 2, rng)
        T = random_unit_matrix(3, 2, rng)
        a = Matching(2, 2, [0, 1], [0, 0], [0.4, 0.3])
        params = m_step(S, T, a, ModelParams(np.eye(3), np.zeros(3)), update_mu=False)
        S_rep = S.data[:, [0, 0]]
        np.testing.assert_allclose(params.omega, procrustes(S_rep, T.data), atol=1e-12)

    def test_empty_assignment_raises(self):
        S = random_unit_matrix(2, 2, np.random.default_rng(0))
        T = random_unit_matrix(2, 2, np.random.default_rng(1))
        with pytest.raises(EmCollapseError):
            m_step(S, T, Matching(2, 2, [], [], []), ModelParams(np.eye(2), np.zeros(2)))

    def test_update_mu_false_keeps_mu(self):
        rng = np.random.default_rng(2)
        S = random_unit_matrix(2, 3, rng)
        T = random_unit_matrix(2, 3, rng)
        m = Matching(3, 3, [0], [0], [0.5])
        prev_mu = np.array([0.7, 0.7])
        params = m_step(S, T, m, ModelParams(np.eye(2), prev_mu), update_mu=False)
        np.testing.assert_array_equal(params.mu, prev_mu)


class TestDuplicateAndMerge:
    def test_one_to_two_keeps_both_targets(self):
        """1:2 lets one source serve two targets through its clone."""
        g = graph(1, 2, [[(0, 0.4), (1, 0.3)]])
        g2, merge = duplicate_and_merge(g)
        assert g2.n_src == 2 and g2.n_trg == 2
        merged = merge(solve_sparse_lap(g2))
        assert pairs(merged) == [(0, 0), (1, 0)]
        assert merged.total_weight == pytest.approx(0.7)
        merged.assert_degrees(trg_cap=1, src_cap=2)

    @settings(deadline=None, max_examples=80)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_expansion_rows_and_merge(self, seed):
        """Row r of the 1:2 expansion is original row r % ns, edge order kept,
        since the solver's tie-breaks follow it.  The merge maps each pair's
        source copy back to its source."""
        rng = np.random.default_rng(seed)
        ns, nt = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        g = random_sparse_graph(ns, nt, int(rng.integers(0, ns * nt + 1)), rng)
        lists = []
        for j in range(ns):
            t, w = edges_of(g, j)
            order = rng.permutation(t.size)
            lists.append(list(zip(t[order].tolist(), w[order].tolist())))
        g = graph(ns, nt, lists)
        expanded, merge = duplicate_and_merge(g)
        expanded.validate()
        assert (expanded.n_src, expanded.n_trg) == (2 * ns, nt)
        for r in range(2 * ns):
            t, w = edges_of(g, r % ns)
            got_t, got_w = edges_of(expanded, r)
            assert got_t.tolist() == t.tolist() and got_w.tolist() == w.tolist()
        m = solve_sparse_lap(expanded)
        merged = merge(m)
        got = zip(merged.trg.tolist(), merged.src.tolist(), merged.weight.tolist())
        want = zip(m.trg.tolist(), m.src.tolist(), m.weight.tolist())
        assert list(got) == sorted((i, j % ns, w) for i, j, w in want)


class TestRunEm:
    def test_recovers_planted_permutation(self):
        """A noiseless rotated permutation is recovered from 10 seed pairs."""
        rng = np.random.default_rng(42)
        inst = planted_instance(200, 20, 0.0, 10, rng)
        params, match, trace = run_em(inst["S"], inst["T"], inst["seed"], EmConfig(k=3))
        assert all(inst["perm"][i] == j for i, j in pairs(match))
        assert len(pairs(match)) == 200
        assert trace.records[-1].mean_cosine == pytest.approx(1.0, abs=1e-9)

    def test_zero_iterations_returns_seed_fit(self):
        """max_iters=0 skips the loop; omega is the seed-pair fit alone."""
        rng = np.random.default_rng(3)
        inst = planted_instance(30, 6, 0.0, 4, rng)
        params, match, trace = run_em(
            inst["S"], inst["T"], inst["seed"], EmConfig(k=3, max_iters=0)
        )
        src = np.array([j for j, _ in inst["seed"].pairs])
        trg = np.array([i for _, i in inst["seed"].pairs])
        expected = procrustes(inst["S"].data[:, src], inst["T"].data[:, trg])
        np.testing.assert_allclose(params.omega, expected, atol=1e-12)
        assert pairs(match) == [] and trace.records == [] and not trace.converged

    def test_exact_regime_traces_are_monotone(self):
        """With dense candidates and a fixed reference point, both the matched
        weight and (on this fixture) the mean cosine never decrease."""
        rng = np.random.default_rng(0)
        inst = planted_instance(30, 8, 0.05, 5, rng)
        config = EmConfig(
            k=30, update_mu=False, min_iters=12, max_iters=12, convergence_eps=1e-15
        )
        _, _, trace = run_em(inst["S"], inst["T"], inst["seed"], config)
        weights = [r.total_weight for r in trace.records]
        cosines = [r.mean_cosine for r in trace.records]
        assert len(weights) == 12
        assert all(b - a >= -1e-9 for a, b in zip(weights, weights[1:]))
        assert all(b - a >= -1e-12 for a, b in zip(cosines, cosines[1:]))

    def test_converges_under_loose_threshold(self):
        """A huge eps stops the loop right after the second iteration."""
        rng = np.random.default_rng(42)
        inst = planted_instance(40, 10, 0.0, 6, rng)
        _, _, trace = run_em(
            inst["S"], inst["T"], inst["seed"], EmConfig(k=3, convergence_eps=10.0)
        )
        assert trace.converged
        assert len(trace.records) == 2

    @pytest.mark.parametrize(
        "cosines, reason",
        [
            ([0.1, 0.2, 0.3, 0.4], "max_iters"),
            ([0.5, 0.5], "converged"),
            ([0.5, 0.4], "cosine_dropped"),
        ],
    )
    def test_stop_reason(self, monkeypatch, cosines, reason):
        """Rising, flat and falling mean cosines stop for three different reasons;
        only the flat one counts as converged."""
        values = iter(cosines)
        monkeypatch.setattr("lexmatch.em._mean_cosine", lambda *args: next(values))
        inst = planted_instance(30, 6, 0.0, 4, np.random.default_rng(3))
        _, _, trace = run_em(inst["S"], inst["T"], inst["seed"], EmConfig(k=3, max_iters=4))
        assert [r.mean_cosine for r in trace.records] == cosines
        assert trace.stop_reason == reason
        assert trace.converged == (reason == "converged")

    def test_collapse_raises(self):
        """Restriction plus pruning can empty the E-step; that is an error."""
        S = EmbeddingMatrix(2, np.eye(2))
        T = EmbeddingMatrix(2, np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(EmCollapseError):
            run_em(S, T, seed_of([(1, 1)]), EmConfig(k=1, rank_restrict=(1, 1)))

    def test_pinned_seed_pairs_survive(self):
        """pin_seed forces every seed pair into each iteration's output."""
        rng = np.random.default_rng(8)
        inst = planted_instance(50, 6, 0.15, 8, rng)
        _, match, _ = run_em(
            inst["S"], inst["T"], inst["seed"], EmConfig(k=3, pin_seed=True)
        )
        got = set(pairs(match))
        for j, i in inst["seed"].pairs:
            assert (i, j) in got

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(sorted(PRIOR_CAPS)), st.integers(min_value=0, max_value=2**32 - 1))
    def test_pinned_seed_within_caps(self, prior, seed):
        """A pinned seed is rejected exactly when it breaks the prior's caps;
        otherwise every iteration's pairs keep every seed pair within them."""
        rng = np.random.default_rng(seed)
        n = 10
        inst = planted_instance(n, 4, 0.3, 0, rng)
        cells = rng.choice(n * n, size=int(rng.integers(1, 7)), replace=False)
        seed_pairs = [divmod(int(c), n) for c in cells]  # (source, target)
        trg_cap, src_cap = PRIOR_CAPS[prior]
        fits = max(Counter(i for _, i in seed_pairs).values()) <= trg_cap and (
            src_cap is None or max(Counter(j for j, _ in seed_pairs).values()) <= src_cap
        )
        config = EmConfig(k=3, prior=prior, pin_seed=True, max_iters=3)
        if not fits:
            with pytest.raises(ValueError, match="cannot be pinned"):
                run_em(inst["S"], inst["T"], seed_of(seed_pairs), config)
            return
        seen = []

        def recording_pin(*args):
            seen.append(_pin_seed_pairs(*args))
            return seen[-1]

        with mock.patch("lexmatch.em._pin_seed_pairs", recording_pin):
            _, final, _ = run_em(inst["S"], inst["T"], seed_of(seed_pairs), config)
        assert seen and seen[-1] is final
        for m in (*seen, final):
            got = pairs(m)
            assert all((i, j) in got for j, i in seed_pairs)
            assert max(Counter(i for i, _ in got).values()) <= trg_cap
            if src_cap is not None:
                assert max(Counter(j for _, j in got).values()) <= src_cap

    def test_empty_seed_rejected(self):
        S = EmbeddingMatrix(2, np.eye(2))
        with pytest.raises(ValueError, match="empty"):
            run_em(S, S, seed_of([]), EmConfig())

    def test_out_of_range_seed_rejected(self):
        S = EmbeddingMatrix(2, np.eye(2))
        with pytest.raises(ValueError, match="range"):
            run_em(S, S, seed_of([(0, 5)]), EmConfig())


class TestFixedPointReuse:
    """run_em records the iterations whose parameters did not change without
    recomputing them, and returns what the loop that recomputes them does."""

    @staticmethod
    def counted_run(S, T, seed, config):
        """run_em's results and its numbers of E-steps and M-steps."""
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with (
            mock.patch("lexmatch.em.e_step", counting("e", e_step)),
            mock.patch("lexmatch.em.m_step", counting("m", m_step)),
        ):
            out = run_em(S, T, seed, config)
        return out, calls["e"], calls["m"]

    @pytest.mark.parametrize("pin_seed", [False, True], ids=["free", "pinned"])
    @pytest.mark.parametrize("prior, fixed_at", [
        (PRIOR_ONE_TO_ONE, 2), (PRIOR_ONE_TO_TWO, 2), (PRIOR_TWO_TO_TWO, 3), (PRIOR_ONE_TO_MANY, 2),
    ], ids=[PRIOR_ONE_TO_ONE, PRIOR_ONE_TO_TWO, PRIOR_TWO_TO_TWO, PRIOR_ONE_TO_MANY])
    @pytest.mark.parametrize("min_iters, max_iters", [(1, 500), (5, 5), (5, 8)])
    def test_no_recomputation_after_the_fixed_point(
        self, min_iters, max_iters, prior, fixed_at, pin_seed
    ):
        """Iteration fixed_at returns the pairs of the iteration before here:
        fixed_at E-steps and one M-step fewer, however many iterations are
        recorded after them."""
        inst = planted_instance(60, 8, 0.05, 10, np.random.default_rng(0))
        config = EmConfig(
            k=3, min_iters=min_iters, max_iters=max_iters, prior=prior, pin_seed=pin_seed
        )
        (_, _, trace), e_steps, m_steps = self.counted_run(
            inst["S"], inst["T"], inst["seed"], config
        )
        assert len(trace) == max(fixed_at + 1, min_iters) and trace.converged
        assert (e_steps, m_steps) == (fixed_at, fixed_at - 1)

    def test_first_m_step_always_runs(self):
        """Iteration 1 returns exactly the seed pairs, but the seed fit set
        mu = 0, so its M-step runs and moves mu to the unmatched target."""
        S = EmbeddingMatrix(3, np.eye(3))
        T = EmbeddingMatrix(3, np.column_stack([np.eye(3), [-1.0, 0.0, 0.0]]))
        seed = seed_of([(0, 0), (1, 1), (2, 2)])
        (params, match, trace), e_steps, m_steps = self.counted_run(S, T, seed, EmConfig(k=3))
        assert pairs(match) == [(0, 0), (1, 1), (2, 2)]
        np.testing.assert_array_equal(params.mu, [-1.0, 0.0, 0.0])
        assert len(trace) == 2 and (e_steps, m_steps) == (2, 1)

    @settings(
        deadline=None, max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        st.sampled_from(sorted(PRIOR_CAPS)),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.sampled_from([1, 3]),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_same_bytes_as_the_reference_loop(
        self, caplog, prior, pin_seed, update_mu, restrict, threads, min_iters, max_iters, seed
    ):
        """Parameters, pairs, weights, trace, stop reason and log lines are
        byte for byte those of the loop that recomputes every iteration."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        inst = planted_instance(
            n, int(rng.integers(1, 9)), float(rng.choice([0.0, 0.05, 0.3])),
            int(rng.integers(1, n + 1)), rng,
        )
        config = EmConfig(
            k=int(rng.integers(1, 5)),
            rank_restrict=tuple(rng.integers(1, n + 1, size=2).tolist()) if restrict else None,
            prior=prior,
            min_iters=min_iters,
            max_iters=max_iters,
            update_mu=update_mu,
            pin_seed=pin_seed,  # planted seed pairs fit every prior's caps
            threads=threads,
        )
        results = []
        for name, train in (("lexmatch.em", run_em), ("oracles", run_em_reference)):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger=name):
                try:
                    params, match, trace = train(inst["S"], inst["T"], inst["seed"], config)
                    out = (
                        [a.tobytes() for a in (params.omega, params.mu)],
                        [a.tobytes() for a in (match.trg, match.src, match.weight)],
                        [(r.iteration, r.matched, r.total_weight.hex(), r.mean_cosine.hex())
                         for r in trace.records],
                        trace.stop_reason,
                    )
                except EmCollapseError as exc:
                    out = str(exc)
            results.append((out, [r.getMessage() for r in caplog.records if r.name == name]))
        assert results[0] == results[1]


class TestPinnedRescoring:
    @settings(deadline=None, max_examples=120)
    @given(
        st.integers(min_value=1, max_value=300),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_weights_are_edge_weight_bit_for_bit(self, d, ties, seed):
        """Under a matching prior every weight of a pinned result, kept pair
        or seed pair, is the scalar edge weight of that pair to the last bit, on
        Gaussian vectors or on small integers, which tie often."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        def draw(*shape):
            if ties:
                return rng.integers(-2, 3, size=shape).astype(np.float64)
            return rng.standard_normal(shape)

        if ties:
            omega = np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], size=d)
        else:
            omega = random_orthogonal(d, rng)
        S, T = EmbeddingMatrix(d, draw(d, n)), EmbeddingMatrix(d, draw(d, n))
        params = ModelParams(omega, draw(d))
        size = int(rng.integers(0, 40))
        m = Matching(n, n, rng.integers(0, n, size), rng.integers(0, n, size), np.zeros(size))
        n_seed = int(rng.integers(1, n + 1))
        pinned = Matching(
            n, n, rng.choice(n, n_seed, replace=False), rng.choice(n, n_seed, replace=False),
            np.zeros(n_seed),
        )
        got = _pin_seed_pairs(m, pinned, False, S, T, params)
        want = [edge_weight_reference(T.data[:, i], S.data[:, j], params) for i, j in pairs(got)]
        assert got.weight.tobytes() == np.array(want, dtype=np.float64).tobytes()


class TestPriorCaps:
    def test_caps_per_prior(self):
        """(target, source) degree caps; one-to-many leaves sources free."""
        assert PRIOR_CAPS == {
            PRIOR_ONE_TO_ONE: (1, 1),
            PRIOR_ONE_TO_TWO: (1, 2),
            PRIOR_TWO_TO_TWO: (2, 2),
            PRIOR_ONE_TO_MANY: (1, None),
        }


class TestEmConfig:
    def test_bad_k(self):
        with pytest.raises(ValueError):
            EmConfig(k=0)

    def test_bad_prior(self):
        with pytest.raises(ValueError):
            EmConfig(prior="many_to_many")

    def test_bad_eps(self):
        """NaN fails every comparison, so `eps <= 0` alone lets it through."""
        for eps in (0.0, -1e-6, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite and > 0"):
                EmConfig(convergence_eps=eps)

    def test_bad_max_iters(self):
        with pytest.raises(ValueError):
            EmConfig(max_iters=-1)


class TestModelIO:
    def test_roundtrip_is_exact(self, tmp_path):
        """Saved parameters reload bit-for-bit, scheme included."""
        rng = np.random.default_rng(42)
        params = ModelParams(random_orthogonal(7, rng), rng.standard_normal(7) * 0.1)
        path = str(tmp_path / "model.npz")
        save_model(path, Model(params, NORM_UNIT))
        loaded = load_model(path)
        assert loaded.normalization == NORM_UNIT
        np.testing.assert_array_equal(loaded.params.omega, params.omega)
        np.testing.assert_array_equal(loaded.params.mu, params.mu)

    @staticmethod
    def stored_model(rng, dim=6):
        """A unit_center_unit model with both sides stored; the source words
        include the empty word and others that only "\\n" may not split."""
        src_words = ["", "ünï", "a\tb", "x\u2028y", "\x1c", "w"]
        trg_words = [f"t{j}" for j in range(4)]
        return Model(
            ModelParams(random_orthogonal(dim, rng), rng.standard_normal(dim)),
            NORM_UNIT_CENTER_UNIT,
            rng.standard_normal(dim),
            rng.standard_normal(dim),
            TrainedSide("ab" * 32, Lexicon(src_words),
                        EmbeddingMatrix(dim, rng.standard_normal((dim, len(src_words))))),
            TrainedSide("0f" * 32, Lexicon(trg_words),
                        EmbeddingMatrix(dim, rng.standard_normal((dim, len(trg_words))))),
        )

    def test_stored_sides_round_trip(self, tmp_path):
        """save, load and save again: the same words, the same float64 bytes,
        and the same bytes in every member of the container."""
        model = self.stored_model(np.random.default_rng(8))
        p1, p2 = str(tmp_path / "p1.npz"), str(tmp_path / "p2.npz")
        save_model(p1, model)
        loaded = load_model(p1)
        save_model(p2, loaded)
        for want, got in ((model.src, loaded.src), (model.trg, loaded.trg)):
            assert got.sha256 == want.sha256
            assert got.lexicon.words == want.lexicon.words
            assert got.matrix.data.dtype == np.float64
            assert got.matrix.data.tobytes() == want.matrix.data.tobytes()
        with zipfile.ZipFile(p1) as a, zipfile.ZipFile(p2) as b:
            assert a.namelist() == b.namelist()
            for name in a.namelist():
                assert a.read(name) == b.read(name), name

    def test_resave_writes_the_same_arrays(self, tmp_path):
        """save_model(p2, load_model(p1)) writes p1's keys and array bytes,
        with and without stored sides."""
        rng = np.random.default_rng(5)
        model = self.stored_model(rng)
        bare = Model(model.params, NORM_UNIT)
        for i, m in enumerate((model, bare)):
            p1, p2 = str(tmp_path / f"p1-{i}.npz"), str(tmp_path / f"p2-{i}.npz")
            save_model(p1, m)
            save_model(p2, load_model(p1))
            with np.load(p1) as a, np.load(p2) as b:
                assert sorted(a.files) == sorted(b.files)
                for key in a.files:
                    assert a[key].dtype == b[key].dtype and a[key].shape == b[key].shape, key
                    assert a[key].tobytes() == b[key].tobytes(), key
        with np.load(str(tmp_path / "p1-0.npz")) as a, np.load(str(tmp_path / "p1-1.npz")) as b:
            sides = {f"{p}_{k}" for p in ("src", "trg") for k in ("sha256", "words", "vectors")}
            assert set(a.files) - set(b.files) == sides
            assert bytes(a["src_words"]) == "\n".join(model.src.lexicon.words).encode()

    def test_newline_in_a_stored_word_is_refused(self, tmp_path):
        model = self.stored_model(np.random.default_rng(9))
        model.trg.lexicon = Lexicon(["t0", "t\n1", "t2", "t3"])
        with pytest.raises(ValueError, match="trg word holds a newline"):
            save_model(str(tmp_path / "m.npz"), model)

    def test_version_1_file_has_empty_extras(self, tmp_path):
        rng = np.random.default_rng(6)
        params = ModelParams(random_orthogonal(4, rng), rng.standard_normal(4))
        path = str(tmp_path / "v1.npz")
        with open(path, "wb") as fh:
            np.savez(fh, format_version=np.int64(1), dim=np.int64(4), omega=params.omega,
                     mu=params.mu, normalization=NORM_UNIT)
        loaded = load_model(path)
        assert loaded.normalization == NORM_UNIT
        assert loaded.params.omega.tobytes() == params.omega.tobytes()
        assert loaded.params.mu.tobytes() == params.mu.tobytes()
        assert loaded.src_center is None and loaded.trg_center is None
        assert loaded.src is None and loaded.trg is None

    def test_non_orthogonal_file_rejected(self, tmp_path):
        """A tampered omega fails the orthogonality check on load."""
        rng = np.random.default_rng(1)
        params = ModelParams(random_orthogonal(4, rng), np.zeros(4))
        path = str(tmp_path / "model.npz")
        save_model(path, Model(params, NORM_UNIT))
        blob = dict(np.load(path))
        blob["omega"] = blob["omega"] * 1.5
        np.savez(open(path, "wb"), **blob)
        with pytest.raises(ValueError):
            load_model(path)

    def test_unknown_version_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        params = ModelParams(random_orthogonal(3, rng), np.zeros(3))
        path = str(tmp_path / "model.npz")
        save_model(path, Model(params, NORM_UNIT))
        blob = dict(np.load(path))
        blob["format_version"] = np.int64(99)
        np.savez(open(path, "wb"), **blob)
        with pytest.raises(ValueError, match="version"):
            load_model(path)
