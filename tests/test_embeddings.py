import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexmatch.embeddings import (
    NORM_NONE,
    NORM_UNIT,
    NORM_UNIT_CENTER_UNIT,
    EmbeddingMatrix,
    Lexicon,
    load_embeddings,
    normalize_pair,
    save_embeddings,
)

ROOT2 = np.sqrt(2.0) / 2.0


class TestLexicon:
    def test_lookup_roundtrip(self):
        """id() and word() invert each other over the whole vocabulary."""
        lex = Lexicon(["cat", "dog", "eel"])
        for i, w in enumerate(lex.words):
            assert lex.id(w) == i
            assert lex.word(i) == w
        assert "dog" in lex
        assert "fox" not in lex
        assert len(lex) == 3

    def test_duplicate_word_rejected(self):
        """Building a lexicon with a repeated word fails, naming the word."""
        with pytest.raises(ValueError, match="'cat'"):
            Lexicon(["cat", "dog", "cat"])


class TestEmbeddingMatrix:
    def test_non_finite_rejected(self):
        """NaN entries are refused at construction time."""
        bad = np.ones((2, 3))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            EmbeddingMatrix(2, bad)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(3, np.ones((2, 4)))


class TestLoadEmbeddings:
    def write(self, tmp_path, text):
        p = tmp_path / "emb.vec"
        p.write_bytes(text.encode("utf-8"))
        return str(p)

    def test_two_word_file(self, tmp_path):
        """A 2-word, 3-dim file loads into columns in file order."""
        path = self.write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n")
        lex, mat = load_embeddings(path)
        assert lex.words == ["a", "b"]
        assert mat.dim == 3
        np.testing.assert_allclose(mat.data[:, 0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(mat.data[:, 1], [0.0, 1.0, 0.0])

    def test_max_vocab_truncates(self, tmp_path):
        """max_vocab=1 keeps only the first word."""
        path = self.write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n")
        lex, mat = load_embeddings(path, max_vocab=1)
        assert lex.words == ["a"]
        assert mat.data.shape == (3, 1)

    def test_extra_row_reports_line(self, tmp_path):
        """A row past the header count fails naming its line, unless
        max_vocab truncates; blank trailing lines are no rows."""
        path = self.write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n\nc 0 0 1\n")
        with pytest.raises(ValueError, match="line 5"):
            load_embeddings(path)
        for max_vocab in (1, 2, 5):
            lex, _ = load_embeddings(path, max_vocab=max_vocab)
            assert lex.words == ["a", "b"][:max_vocab]
        path = self.write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n\n \n")
        lex, _ = load_embeddings(path)
        assert lex.words == ["a", "b"]

    def test_duplicate_word_reports_line(self, tmp_path):
        """A repeated word fails naming the word and the offending line."""
        path = self.write(tmp_path, "2 3\na 1 0 0\na 0 1 0\n")
        with pytest.raises(ValueError, match=r"'a'") as err:
            load_embeddings(path)
        assert "line 3" in str(err.value)

    def test_malformed_header(self, tmp_path):
        path = self.write(tmp_path, "banana\na 1 0 0\n")
        with pytest.raises(ValueError, match="line 1"):
            load_embeddings(path)

    def test_wrong_arity_reports_line(self, tmp_path):
        path = self.write(tmp_path, "2 3\na 1 0 0\nb 0 1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_embeddings(path)

    def test_blank_row_reports_line(self, tmp_path):
        """A blank line among the declared rows fails the value count, naming its line."""
        path = self.write(tmp_path, "3 2\na 1 0\n\nb 0 1\n")
        with pytest.raises(ValueError, match="line 3: expected 2 values"):
            load_embeddings(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = self.write(tmp_path, "1 2\na nan 0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_embeddings(path)

    def test_truncated_file_rejected(self, tmp_path):
        """Header promising more rows than present is an error, not silence."""
        path = self.write(tmp_path, "3 2\na 1 0\nb 0 1\n")
        with pytest.raises(ValueError):
            load_embeddings(path)

    def test_crlf_and_trailing_space_tolerated(self, tmp_path):
        path = self.write(tmp_path, "2 2\r\na 1 0 \r\nb 0 1\r\n")
        lex, mat = load_embeddings(path)
        assert lex.words == ["a", "b"]
        np.testing.assert_allclose(mat.data, np.eye(2))

    def test_save_load_roundtrip(self, tmp_path):
        """save_embeddings followed by load_embeddings is value-exact."""
        rng = np.random.default_rng(42)
        words = [f"w{i}" for i in range(7)]
        data = rng.standard_normal((5, 7))
        path = str(tmp_path / "round.vec")
        save_embeddings(path, Lexicon(words), EmbeddingMatrix(5, data))
        lex, mat = load_embeddings(path)
        assert lex.words == words
        np.testing.assert_array_equal(mat.data, data)


class TestNormalize:
    def test_unit_scales_columns(self):
        """Column (3,4) becomes (0.6, 0.8)."""
        mat = EmbeddingMatrix(2, np.array([[3.0], [4.0]]))
        _, out = normalize_pair(Lexicon(["a"]), mat, NORM_UNIT)
        np.testing.assert_allclose(out.data[:, 0], [0.6, 0.8])

    def test_none_is_bitwise_identity(self):
        rng = np.random.default_rng(42)
        mat = EmbeddingMatrix(3, rng.standard_normal((3, 5)))
        _, out = normalize_pair(Lexicon(list("abcde")), mat, NORM_NONE)
        assert np.array_equal(out.data, mat.data)

    def test_unit_center_unit_two_columns(self):
        """Hand-worked 2-column case: unit, subtract the mean, unit again."""
        mat = EmbeddingMatrix(2, np.array([[1.0, 0.0], [0.0, 1.0]]))
        _, out = normalize_pair(Lexicon(["a", "b"]), mat, NORM_UNIT_CENTER_UNIT)
        np.testing.assert_allclose(out.data[:, 0], [ROOT2, -ROOT2], atol=1e-12)
        np.testing.assert_allclose(out.data[:, 1], [-ROOT2, ROOT2], atol=1e-12)

    def test_unknown_scheme_rejected(self):
        mat = EmbeddingMatrix(2, np.eye(2))
        with pytest.raises(ValueError):
            normalize_pair(Lexicon(["a", "b"]), mat, "l2")

    def test_zero_column_error_names_word(self):
        mat = EmbeddingMatrix(2, np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="'zed'"):
            normalize_pair(Lexicon(["ok", "zed"]), mat, NORM_UNIT)

    def test_drop_zero_removes_from_both_sides(self):
        """normalize_pair(drop_zero=True) drops zero vectors and their words."""
        lex = Lexicon(["a", "zero", "b"])
        mat = EmbeddingMatrix(2, np.array([[3.0, 0.0, 0.0], [4.0, 0.0, 2.0]]))
        lex2, out = normalize_pair(lex, mat, NORM_UNIT, drop_zero=True)
        assert lex2.words == ["a", "b"]
        np.testing.assert_allclose(out.data, [[0.6, 0.0], [0.8, 1.0]])

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_unit_is_idempotent(self, seed):
        """Applying unit normalization twice equals applying it once."""
        rng = np.random.default_rng(seed)
        mat = EmbeddingMatrix(4, rng.standard_normal((4, 6)) + 0.1)
        lex = Lexicon(list("abcdef"))
        _, once = normalize_pair(lex, mat, NORM_UNIT)
        _, twice = normalize_pair(lex, once, NORM_UNIT)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(once.data, axis=0), 1.0)
