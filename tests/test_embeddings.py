import hashlib
import os
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import piped
from lexmatch import embeddings
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

    @pytest.mark.parametrize("hashed", [False, True], ids=["plain", "hashed"])
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["no-bom", "bom"])
    def test_byte_order_mark_not_read_as_text(self, tmp_path, bom, hashed):
        """A UTF-8 byte-order mark before the header is not part of it, in a
        plain or a hashed read."""
        path = self.write(tmp_path, bom + "2 3\na 1 0 0\nb 0 1 0\n")
        lex, mat = load_embeddings(path, hasher=hashlib.sha256() if hashed else None)
        assert lex.words == ["a", "b"]
        np.testing.assert_array_equal(mat.data, [[1, 0], [0, 1], [0, 0]])

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

    @pytest.mark.parametrize("hashed", [False, True], ids=["plain", "hashed"])
    def test_invalid_utf8_reports_line(self, tmp_path, hashed):
        """A byte that is not UTF-8 fails naming the file and the line, counted
        as the parser counts lines: a lone CR ends one."""
        path = tmp_path / "emb.vec"
        path.write_bytes(b"2 2\r\na 1 0\rb\xff 0 1\n")
        message = f"{path}: line 3: not valid UTF-8"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_embeddings(str(path), hasher=hashlib.sha256() if hashed else None)

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


# tokens beside plain floats: odd spellings float() reads (1_0, a non-ASCII
# digit, surrounding whitespace, signs), values it rejects or that are not
# finite, an empty field from a double space, and a separator np.loadtxt
# skips but float() does not
ODD_TOKENS = [
    "0.0", "-0.0", "+0.0", "+1", "1e5", "-2.5E-3", "1.", ".5", "1_0", "١",
    "\t1", "1\x0c", "1\x1c", "nan", "inf", "-inf", "1e309", "", "x", "1e",
    "0x1", "1,5",
]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def word2vec_files(draw):
    """A word2vec text file, clean or with odd rows, plus a max_vocab.

    An odd row may repeat or empty its word, and may carry one of: an odd
    token, a value too few or too many, a blank line before it, or two
    trailing spaces.  Most odd rows change nothing else, so many blocks
    still reach the bulk parse whole.
    """
    dim = draw(st.integers(1, 4))
    odd = draw(st.booleans())
    token = st.one_of(FINITE.map(repr), FINITE.map(lambda x: f"{x:.6f}"))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    n_rows = draw(st.integers(0, 8))
    lines = []
    for i in range(n_rows):
        word = f"w{i}"
        values = draw(st.lists(token, min_size=dim, max_size=dim))
        trail = draw(st.sampled_from(["", " "]))
        if odd:
            word = draw(st.sampled_from([word] * 4 + ["w0", "w3", "", "é"]))
            kind = draw(st.integers(0, 11))
            if kind == 0:
                values[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(ODD_TOKENS))
            elif kind == 1:
                values = values[:-1]
            elif kind == 2:
                values.append(draw(token))
            elif kind == 3:
                lines.append(draw(st.sampled_from(["", " "])) + eol)
            elif kind == 4:
                trail = "  "
        lines.append(" ".join([word, *values]) + trail + eol)
    n_declared = n_rows
    if odd:
        n_declared = max(0, n_rows + draw(st.integers(-1, 2)))
    text = f"{n_declared} {dim}{eol}" + "".join(lines)
    text += draw(st.sampled_from(["", eol, eol + eol, " " + eol]))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    max_vocab = draw(st.one_of(st.none(), st.integers(0, n_rows + 1)))
    return text, dim, max_vocab


def load_outcome(path, max_vocab, hasher=None):
    """(words, float64 bytes) of a load, or the error it raises."""
    try:
        lex, mat = load_embeddings(path, max_vocab=max_vocab, hasher=hasher)
    except ValueError as exc:
        return "error", str(exc)
    return lex.words, mat.data.shape, mat.data.tobytes()


class TestBulkParse:
    """The block-wise bulk parse gives exactly what the row parser alone gives."""

    def write(self, tmp_path, text):
        p = tmp_path / "emb.vec"
        p.write_bytes(text.encode("utf-8"))
        return str(p)

    @settings(deadline=None, max_examples=400)
    @given(file=word2vec_files(), block_rows=st.integers(1, 3))
    # a word repeated from an earlier block, and a separator loadtxt skips
    @example(file=("2 1\nw0 1\nw0 2\n", 1, None), block_rows=1)
    @example(file=("2 1\nw0 1\nw1 1\x1c\n", 1, None), block_rows=1)
    def test_matches_row_parser(self, tmp_path_factory, file, block_rows):
        """Same words and float64 bytes, or the same error text, as the row
        parser applied to every row; blocks of 1-3 rows put failures,
        duplicates and the file's end in later blocks.  A hashed load of the
        whole file gives the same, and the sha256 of the file's bytes."""
        text, dim, max_vocab = file
        path = self.write(tmp_path_factory.getbasetemp(), text)
        with mock.patch.object(embeddings, "_bulk_rows", return_value=False):
            expected = load_outcome(path, max_vocab)
        with mock.patch.object(embeddings, "BLOCK_VALUES", block_rows * dim):
            assert load_outcome(path, max_vocab) == expected
            if max_vocab is None:
                hasher = hashlib.sha256()
                assert load_outcome(path, None, hasher) == expected
                if expected[0] != "error":
                    assert hasher.digest() == hashlib.sha256(text.encode("utf-8")).digest()

    @pytest.mark.parametrize("trail", ["", " "])
    def test_clean_rows_skip_row_parser(self, tmp_path, trail):
        """Plain rows, with or without the trailing space word2vec writes,
        never reach the row parser."""
        text = "".join(f"w{i} {i}.5 -1e-3 0{trail}\n" for i in range(50))
        path = self.write(tmp_path, "50 3\n" + text)
        with mock.patch.object(embeddings, "BLOCK_VALUES", 3 * 7), \
                mock.patch.object(embeddings, "_parse_rows", side_effect=AssertionError):
            lex, mat = load_embeddings(path)
        assert lex.words == [f"w{i}" for i in range(50)]
        np.testing.assert_array_equal(mat.data[0], np.arange(50) + 0.5)

    @pytest.mark.parametrize("text, expected", [
        ("2 3\na 1 0 0\nb 0 1 0\n", (["a", "b"], [[1, 0], [0, 1], [0, 0]])),
        ("2 2\na 1_0 0\nb 0 1\n", (["a", "b"], [[10, 0], [0, 1]])),
        ("3 2\na 1 0\nb x 1\nc 0 1\n", "line 3: unparseable value for word 'b'"),
        # a pipe cannot be read again to find the line
        ("3 2\na 1 0\nb\udcff 0 1\nc 0 1\n", "not valid UTF-8"),
    ])
    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_input(self, text, expected):
        """A pipe (as from `--src-emb <(zcat x.vec.gz)`) loads, falls back and
        fails as a regular file does: the loader never seeks.  "\\udcff"
        writes the byte 0xff."""
        with piped(text.encode("utf-8", "surrogateescape")) as path:
            if isinstance(expected, str):
                with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {expected}')}$"):
                    load_embeddings(path)
            else:
                lex, mat = load_embeddings(path)
                assert lex.words == expected[0]
                np.testing.assert_array_equal(mat.data, expected[1])

    @pytest.mark.parametrize("text, expected", [
        ("0 3\n", ([], (3, 0))),
        ("3 2\na 1 0\n\nb 0 1\n", "line 3: expected 2 values for word '', got 0"),
        ("2 2\na \nb \n", "line 2: expected 2 values for word 'a', got 0"),
        ("2 2\na 1_0 0\nb 0 1\n", (["a", "b"], (2, 2))),
    ])
    def test_no_warnings(self, tmp_path, capfd, text, expected):
        """Blank value parts and fallback blocks warn nothing and print nothing."""
        path = self.write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, str):
                with pytest.raises(ValueError, match=expected):
                    load_embeddings(path)
            else:
                lex, mat = load_embeddings(path)
                assert (lex.words, mat.data.shape) == expected
        assert capfd.readouterr() == ("", "")


class TestColumnLayout:
    """The loader fills the (dim, n) matrix directly: the same bytes as
    parsing (n, dim) rows and copying their transpose, C-contiguous."""

    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(1, 5),
        st.lists(FINITE, max_size=40),
        st.integers(1, 3),
        st.booleans(),
    )
    def test_matches_transposed_rows(self, tmp_path_factory, dim, values, block_rows, bulk):
        n = len(values) // dim
        rows = [values[i * dim : (i + 1) * dim] for i in range(n)]
        text = f"{n} {dim}\n" + "".join(
            " ".join([f"w{i}", *map(repr, row)]) + "\n" for i, row in enumerate(rows)
        )
        path = tmp_path_factory.getbasetemp() / "layout.vec"
        path.write_text(text, encoding="utf-8")
        expected = np.ascontiguousarray(np.array(rows, dtype=np.float64).reshape(n, dim).T)
        bulk_rows = embeddings._bulk_rows if bulk else (lambda *args: False)
        with mock.patch.object(embeddings, "BLOCK_VALUES", block_rows * dim), \
                mock.patch.object(embeddings, "_bulk_rows", bulk_rows):
            lex, mat = load_embeddings(str(path))
        assert lex.words == [f"w{i}" for i in range(n)]
        assert lex.index == {f"w{i}": i for i in range(n)}
        assert mat.data.shape == (dim, n) and mat.data.flags.c_contiguous
        assert mat.data.tobytes() == expected.tobytes()


def old_unit_columns(data, words):
    norms = np.linalg.norm(data, axis=0)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"cannot unit-normalize zero vector for {words[int(zero[0])]!r}")
    return data / norms


def old_normalize(words, data, scheme, drop_zero):
    """normalize_pair as first written: a new whole matrix per step."""
    if scheme == NORM_NONE:
        return list(words), data.copy()
    if drop_zero:
        keep = np.linalg.norm(data, axis=0) != 0.0
        if not keep.any():
            raise ValueError(f"all {len(words)} vectors are zero; no word is left")
        if not np.all(keep):
            words = [w for w, k in zip(words, keep) if k]
            data = data[:, keep]
    data = old_unit_columns(data, words)
    if scheme == NORM_UNIT_CENTER_UNIT:
        data = data - data.mean(axis=1, keepdims=True)
        data = old_unit_columns(data, words)
    return list(words), data


def normalize_outcome(normalize):
    """(words, shape, float64 bytes) from normalize(), or the error it raises."""
    try:
        words, out = normalize()
    except ValueError as exc:
        return "error", str(exc)
    return words, out.shape, out.tobytes()


class TestNormalizeBytes:
    """normalize_pair gives the bytes, words and errors of the old formulas
    and leaves its input untouched."""

    @settings(deadline=None, max_examples=300)
    @given(
        st.integers(1, 6),
        st.integers(1, 8),
        st.lists(st.integers(0, 7), max_size=3),
        st.sampled_from(list(embeddings.NORMALIZATION_SCHEMES)),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_old_formulas(self, dim, n, zero_cols, scheme, drop_zero, same, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((dim, n)) * rng.uniform(0.1, 10.0, size=n)
        if same:
            # every column alike: centring leaves zero or rounding-sized columns
            data[:] = data[:, :1]
        data[:, [c for c in zero_cols if c < n]] = 0.0
        words = [f"w{i}" for i in range(n)]
        mat = EmbeddingMatrix(dim, data.copy())
        before = mat.data.tobytes()

        def new():
            lex, out = normalize_pair(Lexicon(words), mat, scheme, drop_zero=drop_zero)
            assert out.data.flags.c_contiguous and out.data is not mat.data
            return lex.words, out.data

        expected = normalize_outcome(lambda: old_normalize(words, data, scheme, drop_zero))
        assert normalize_outcome(new) == expected
        assert mat.data.tobytes() == before

    def test_wide_matrix_with_dropped_column(self):
        """A wide real-valued matrix, where the kept columns' norms must be
        taken again after the drop to keep the old bytes."""
        rng = np.random.default_rng(7)
        data = rng.standard_normal((300, 2000))
        data[:, 5] = 0.0
        words = [f"w{i}" for i in range(2000)]
        mat = EmbeddingMatrix(300, data.copy())
        for scheme in (NORM_UNIT, NORM_UNIT_CENTER_UNIT):
            lex, out = normalize_pair(Lexicon(words), mat, scheme, drop_zero=True)
            ref_words, ref = old_normalize(words, data, scheme, True)
            assert lex.words == ref_words
            assert out.data.tobytes() == ref.tobytes()
        assert np.array_equal(mat.data, data)


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

    @pytest.mark.parametrize("scheme", [NORM_UNIT, NORM_UNIT_CENTER_UNIT])
    def test_drop_zero_of_every_column_raises(self, scheme):
        """An all-zero matrix leaves no word to normalize: it raises, without
        numpy's warning about an empty mean."""
        mat = EmbeddingMatrix(3, np.zeros((3, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="all 2 vectors are zero"):
                normalize_pair(Lexicon(["a", "b"]), mat, scheme, drop_zero=True)

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


@pytest.mark.parametrize(
    "call",
    [
        lambda lex, m, tmp: save_embeddings(str(tmp / "e.txt"), lex, m),
        lambda lex, m, tmp: normalize_pair(lex, m, NORM_UNIT),
    ],
    ids=["save_embeddings", "normalize_pair"],
)
def test_lexicon_and_matrix_sizes_must_agree(tmp_path, call):
    message = "lexicon size 1 != matrix column count 2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(Lexicon(["a"]), EmbeddingMatrix(2, np.eye(2)), tmp_path)
    assert list(tmp_path.iterdir()) == []
