import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthogonal, random_unit_matrix, unit_columns
from lexmatch.em import ModelParams
from lexmatch.embeddings import EmbeddingMatrix, Lexicon
from lexmatch.evaluation import (
    hubness,
    load_eval_dictionary,
    load_wordsim_tsv,
    precision_at_1,
    topn_neighbors,
    translate_batch,
    word_similarity,
)

IDENT2 = ModelParams(np.eye(2), np.zeros(2))


def angled_targets(cosines):
    """Unit columns whose cosine against e1 is exactly the given sequence."""
    cos = np.asarray(cosines, dtype=np.float64)
    return EmbeddingMatrix(2, np.vstack([cos, np.sqrt(1.0 - cos**2)]))


class TestLoaders:
    def test_eval_dictionary_merges_references(self, tmp_path):
        p = tmp_path / "dict.tsv"
        p.write_text("uno\tone\nuno\tsingle\ndos\ttwo\n", encoding="utf-8")
        gold = load_eval_dictionary(str(p))
        assert gold == {"uno": {"one", "single"}, "dos": {"two"}}

    def test_wordsim_triples(self, tmp_path):
        p = tmp_path / "ws.tsv"
        p.write_text("cat\tKatze\t8.5\ncat\tHund\t3.0\n", encoding="utf-8")
        triples = load_wordsim_tsv(str(p))
        assert triples == [("cat", "Katze", 8.5), ("cat", "Hund", 3.0)]


class TestTranslate:
    def test_exact_image_wins(self):
        """The target equal to the mapped source scores cosine 1 and wins."""
        rng = np.random.default_rng(42)
        d = 6
        omega = random_orthogonal(d, rng)
        S = random_unit_matrix(d, 4, rng)
        T_data = unit_columns(rng.standard_normal((d, 5)))
        T_data[:, 3] = omega @ S.data[:, 2]
        T = EmbeddingMatrix(d, T_data)
        top1 = translate_batch(ModelParams(omega, np.zeros(d)), S, T, [2])
        assert top1.tolist() == [3]

    def test_tie_takes_lower_index(self):
        """Two identical targets tie on cosine; the lower id is returned."""
        S = EmbeddingMatrix(2, np.array([[1.0], [0.0]]))
        dup = unit_columns(np.array([[0.8, 0.8], [0.6, 0.6]]))
        T = EmbeddingMatrix(2, dup)
        top1 = translate_batch(IDENT2, S, T, [0])
        assert top1.tolist() == [0]

    def test_two_candidates(self):
        """(0.9, 0.1) normalized beats (0, 1) for the query e1."""
        S = EmbeddingMatrix(2, np.array([[1.0], [0.0]]))
        T = EmbeddingMatrix(
            2, np.column_stack([unit_columns(np.array([[0.9], [0.1]]))[:, 0], [0.0, 1.0]])
        )
        top1 = translate_batch(IDENT2, S, T, [0])
        assert top1.tolist() == [0]

    def test_no_sources_give_empty_ids(self):
        S = EmbeddingMatrix(2, np.eye(2))
        top1 = translate_batch(IDENT2, S, S, [])
        assert top1.dtype == np.int64 and top1.shape == (0,)

    def test_topn_ordering(self):
        """Neighbors come back by descending cosine, ties to lower ids."""
        S = EmbeddingMatrix(2, np.array([[1.0], [0.0]]))
        T = angled_targets([0.2, 0.9, 0.5, 0.9])
        [out] = topn_neighbors(IDENT2, S, T, [0], 3)
        assert [i for i, _ in out] == [1, 3, 2]
        assert out[0][1] == pytest.approx(0.9)


class TestPrecisionAt1:
    def fixture(self):
        lex_src = Lexicon(["a", "b", "c", "d"])
        lex_trg = Lexicon(["x", "y"])
        S = EmbeddingMatrix(2, np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]))
        T = EmbeddingMatrix(2, np.eye(2))
        return lex_src, lex_trg, S, T

    def test_all_correct(self):
        lex_src, lex_trg, S, T = self.fixture()
        gold = {"a": {"x"}, "b": {"y"}}
        score, coverage = precision_at_1(IDENT2, S, T, gold, lex_src, lex_trg)
        assert score == 1.0 and coverage == 1.0

    def test_none_correct(self):
        lex_src, lex_trg, S, T = self.fixture()
        gold = {"a": {"y"}, "b": {"x"}}
        score, _ = precision_at_1(IDENT2, S, T, gold, lex_src, lex_trg)
        assert score == 0.0

    def test_half_correct(self):
        """Four entries, two retrieved correctly, gives exactly one half."""
        lex_src, lex_trg, S, T = self.fixture()
        gold = {"a": {"x"}, "b": {"x"}, "c": {"y"}, "d": {"y"}}
        score, coverage = precision_at_1(IDENT2, S, T, gold, lex_src, lex_trg)
        assert score == 0.5 and coverage == 1.0

    def test_multi_reference_hit(self):
        """Any gold alternative counts as a hit."""
        lex_src, lex_trg, S, T = self.fixture()
        gold = {"a": {"y", "x"}}
        score, _ = precision_at_1(IDENT2, S, T, gold, lex_src, lex_trg)
        assert score == 1.0

    def test_coverage_excludes_oov(self):
        """OOV sources and entries with no in-vocabulary reference drop out."""
        lex_src, lex_trg, S, T = self.fixture()
        gold = {"a": {"x"}, "missing": {"x"}, "b": {"nope"}, "c": {"nope", "x"}}
        score, coverage = precision_at_1(IDENT2, S, T, gold, lex_src, lex_trg)
        assert coverage == 0.5
        assert score == 1.0

    def test_zero_coverage_rejected(self):
        lex_src, lex_trg, S, T = self.fixture()
        with pytest.raises(ValueError):
            precision_at_1(IDENT2, S, T, {"zz": {"x"}}, lex_src, lex_trg)


class TestWordSimilarity:
    def fixture(self, cosines):
        lex_src = Lexicon(["a", "b", "c"])
        lex_trg = Lexicon(["X", "Y", "Z"])
        S = EmbeddingMatrix(2, np.tile(np.array([[1.0], [0.0]]), (1, 3)))
        T = angled_targets(cosines)
        return lex_src, lex_trg, S, T

    def triples(self):
        return [("a", "X", 1.0), ("b", "Y", 2.0), ("c", "Z", 3.0)]

    def test_perfect_agreement(self):
        """Model cosines increasing with gold scores correlate at 1."""
        lex_src, lex_trg, S, T = self.fixture([0.1, 0.5, 0.9])
        rho, coverage = word_similarity(IDENT2, S, T, self.triples(), lex_src, lex_trg)
        assert rho == pytest.approx(1.0)
        assert coverage == 1.0

    def test_perfect_disagreement(self):
        lex_src, lex_trg, S, T = self.fixture([0.9, 0.5, 0.1])
        rho, _ = word_similarity(IDENT2, S, T, self.triples(), lex_src, lex_trg)
        assert rho == pytest.approx(-1.0)

    def test_one_transposition(self):
        """Gold ranks (1,2,3) against model ranks (1,3,2) correlate at 0.5."""
        lex_src, lex_trg, S, T = self.fixture([0.2, 0.9, 0.5])
        rho, _ = word_similarity(IDENT2, S, T, self.triples(), lex_src, lex_trg)
        assert rho == pytest.approx(0.5)

    def test_oov_triples_skipped(self):
        lex_src, lex_trg, S, T = self.fixture([0.1, 0.5, 0.9])
        triples = self.triples() + [("zzz", "X", 5.0)]
        rho, coverage = word_similarity(IDENT2, S, T, triples, lex_src, lex_trg)
        assert rho == pytest.approx(1.0)
        assert coverage == 0.75

    def test_too_few_usable_rejected(self):
        lex_src, lex_trg, S, T = self.fixture([0.1, 0.5, 0.9])
        with pytest.raises(ValueError, match="at least 2"):
            word_similarity(IDENT2, S, T, [("a", "X", 1.0)], lex_src, lex_trg)


class TestHubness:
    def test_single_hub_collects_everything(self):
        """Three queries all nearest the same target: N_1 = (3, 0)."""
        S = EmbeddingMatrix(2, unit_columns(np.array([[0.99, 0.98, 0.97], [0.1, 0.2, 0.24]])))
        T = EmbeddingMatrix(2, np.eye(2))
        counts = hubness(IDENT2, S, EmbeddingMatrix(2, T.data), [0, 1, 2], k=1)
        assert counts.tolist() == [3, 0]
        assert int(counts.max()) == 3

    def test_isolated_target_counts_zero(self):
        """A target in nobody's neighborhood reports zero occupancy."""
        S = EmbeddingMatrix(2, np.array([[1.0], [0.0]]))
        T = angled_targets([0.9, 0.5, -0.4])
        counts = hubness(IDENT2, S, T, [0], k=2)
        assert counts.tolist() == [1, 1, 0]

    def test_k_bounds_checked(self):
        S = EmbeddingMatrix(2, np.eye(2))
        T = EmbeddingMatrix(2, np.eye(2))
        with pytest.raises(ValueError, match=r"^k = 3 exceeds target vocabulary size 2$"):
            hubness(IDENT2, S, T, [0], k=3)
        with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
            hubness(IDENT2, S, T, [0], k=0)
        with pytest.raises(ValueError, match=r"^empty query set$"):
            hubness(IDENT2, S, T, [], k=1)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_counting_identity(self, seed):
        """Occupancy counts always sum to k times the number of queries."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 8))
        n_src = int(rng.integers(1, 12))
        n_trg = int(rng.integers(2, 12))
        k = int(rng.integers(1, n_trg + 1))
        S = random_unit_matrix(d, n_src, rng)
        T = random_unit_matrix(d, n_trg, rng)
        params = ModelParams(random_orthogonal(d, rng), np.zeros(d))
        queries = list(range(n_src))
        counts = hubness(params, S, T, queries, k=k)
        assert int(counts.sum()) == k * n_src


E2 = EmbeddingMatrix(2, np.eye(2))
LEX2 = Lexicon(["a", "b"])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: translate_batch(IDENT2, E2, E2, [0, 2]), IndexError,
         "source index out of range [0, 2)"),
        (lambda: topn_neighbors(IDENT2, E2, E2, [-1], 1), IndexError,
         "source index out of range [0, 2)"),
        (lambda: hubness(IDENT2, E2, E2, [1, 2], k=1), IndexError,
         "source index out of range [0, 2)"),
        (lambda: topn_neighbors(IDENT2, E2, E2, [0], 0), ValueError, "n must be >= 1, got 0"),
        (lambda: precision_at_1(IDENT2, E2, E2, {"a": {"b"}, "b": set()}, LEX2, LEX2),
         ValueError, "gold entry 'b' has an empty reference set"),
    ],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
