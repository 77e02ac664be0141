"""Word embedding I/O and normalization.

Embeddings are kept as a (Lexicon, EmbeddingMatrix) pair: the lexicon maps
words to contiguous integer ids, the matrix stores one embedding per column
so that column i belongs to word i of the lexicon.  File format is the
word2vec text format: a "n d" header line followed by n lines of
"word v1 ... vd", UTF-8 encoded with or without a byte-order mark.
"""

from __future__ import annotations

import hashlib
import io
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

NORM_NONE = "none"
NORM_UNIT = "unit"
NORM_UNIT_CENTER_UNIT = "unit_center_unit"
NORMALIZATION_SCHEMES = (NORM_NONE, NORM_UNIT, NORM_UNIT_CENTER_UNIT)


@dataclass
class Lexicon:
    """Ordered vocabulary with O(1) word <-> id lookup.

    Ids are dense, start at 0 and follow file order (descending corpus
    frequency in the usual pretrained files, which is what the frequency
    rank restriction in the trainer relies on).
    """

    words: list[str]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.index = dict(zip(self.words, range(len(self.words))))
        if len(self.index) < len(self.words):
            seen = set()
            for w in self.words:
                if w in seen:
                    raise ValueError(f"duplicate word {w!r} in lexicon")
                seen.add(w)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def id(self, word: str) -> int:
        return self.index[word]

    def word(self, i: int) -> str:
        return self.words[i]


@dataclass
class EmbeddingMatrix:
    """Dense embedding matrix, shape (dim, n_words); column i = word i.

    center is the (dim,) vector that unit_center_unit subtracted, None for
    a matrix it did not make.
    """

    dim: int
    data: np.ndarray
    center: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data)
        if self.data.ndim != 2 or self.data.shape[0] != self.dim:
            raise ValueError(
                f"embedding matrix must have shape ({self.dim}, n), got {self.data.shape}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("embedding matrix contains non-finite entries")

    @property
    def n_words(self) -> int:
        return self.data.shape[1]


# a bulk block holds BLOCK_VALUES // dim rows (at least one), so its parsed
# values take at most 64 KB whatever the dimension
BLOCK_VALUES = 8192
# separators that np.loadtxt skips around a number as whitespace but float()
# rejects; a block holding one is left to the row parser
_LOADTXT_ONLY_SPACE = ("\x1c", "\x1d", "\x1e", "\x1f")


def load_embeddings(
    path: str, max_vocab: int | None = None, *, hasher=None
) -> tuple[Lexicon, EmbeddingMatrix]:
    """Read word2vec text format into float64.

    The accepted values are exactly Python float() syntax, finite only.
    Tolerates \\r\\n line endings, one trailing space before the line end,
    a missing trailing newline and blank trailing lines.  Raises ValueError,
    its message after path, with a 1-based line number for a malformed
    header, a row whose value count disagrees with the header dimension, a
    duplicate word, an unparseable or non-finite value, a file shorter than
    the header's count, or a row past it, and for text that is not UTF-8
    (see input_errors).  max_vocab keeps only the first rows, i.e. the most
    frequent words in frequency-sorted files, and ignores the rest.

    The rows are read forward only (a pipe works) in blocks of
    BLOCK_VALUES // dim lines, each parsed by one np.loadtxt call.  A block
    that this bulk parse does not take whole goes through _parse_rows, the
    row parser that defines what is accepted and words every error.

    hasher, a hashlib object, is fed every byte of the file, read whole
    before it is parsed.
    """
    names: list[str] = []
    seen: dict[str, int] = {}
    with input_errors(path), _open_text(path, hasher) as fh:
        n_declared, dim = _read_header(fh)
        n_rows = n_declared if max_vocab is None else min(n_declared, max_vocab)
        lines = islice(fh, n_rows)
        # filled in the matrix's own (dim, n) layout through transposed views
        data = np.empty((dim, n_rows))
        block_rows = max(1, BLOCK_VALUES // dim)
        m = 0
        while block := list(islice(lines, block_rows)):
            out = data[:, m : m + len(block)].T
            if not _bulk_rows(block, m + 2, out, names, seen):
                _parse_rows(block, m + 2, out, names, seen)
            m += len(block)
        if m < n_rows:
            raise ValueError(
                f"line {m + 2}: unexpected end of file, header declared {n_declared} rows"
            )
        if max_vocab is None:
            # only blank lines may follow the declared rows
            for lineno, line in enumerate(fh, start=n_declared + 2):
                if line.strip():
                    raise ValueError(
                        f"line {lineno}: row beyond the {n_declared} the header declares"
                    )
    return Lexicon(names), EmbeddingMatrix(dim, data)


def file_sha256(path: str) -> str | None:
    """Hex sha256 of a regular file's bytes; None for anything else, such as
    a pipe, which could be read only once."""
    if not os.path.isfile(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def input_errors(path: str):
    """Re-raises a ValueError from reading the text file at path with path
    before its message.  Text that is not UTF-8 raises "path: line N: not
    valid UTF-8", without the line for a file that cannot be read again,
    such as a pipe."""
    try:
        yield
    except UnicodeDecodeError:
        raise ValueError(f"{path}: {_bad_utf8_line(path)}not valid UTF-8") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _bad_utf8_line(path: str) -> str:
    """"line N: " for the first line of the regular file at path that is not
    UTF-8, else ""."""
    if os.path.isfile(path):
        # latin-1 reads each byte as one character, so lines split where
        # they split in the UTF-8 text
        with open(path, encoding="latin-1") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.encode("latin-1").decode("utf-8")
                except UnicodeDecodeError:
                    return f"line {lineno}: "
    return ""


def _open_text(path: str, hasher):
    """The file as open(path, encoding="utf-8-sig") reads it.  With hasher, the
    file is read whole and those bytes are both hashed and parsed, so that
    the digest covers exactly what was parsed, also from a pipe."""
    if hasher is None:
        return open(path, encoding="utf-8-sig")
    with open(path, "rb") as fh:
        raw = fh.read()
    hasher.update(raw)
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig")


def _read_header(fh) -> tuple[int, int]:
    """(n, d) from the header line."""
    header = fh.readline()
    if not header:
        raise ValueError("line 1: empty file, expected 'n d' header")
    parts = header.rstrip("\r\n").split()
    if len(parts) != 2:
        raise ValueError(f"line 1: malformed header {header.rstrip()!r}, expected 'n d'")
    try:
        n_declared, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(
            f"line 1: malformed header {header.rstrip()!r}, expected two integers"
        ) from None
    if n_declared < 0 or dim <= 0:
        raise ValueError(f"line 1: invalid header counts n={n_declared} d={dim}")
    return n_declared, dim


def _parse_rows(
    lines: list[str], first_line: int, out: np.ndarray, words: list[str], seen: dict[str, int]
) -> None:
    """Parse lines one at a time into the rows of out; lines[0] is file line first_line.

    Appends each word to words and records its line in seen.  Raises the
    first row's error in file order.
    """
    dim = out.shape[1]
    for row, line in enumerate(lines):
        lineno = first_line + row
        fields = line.rstrip("\r\n").split(" ")
        # tolerate a trailing space before the newline; a blank line keeps
        # its one empty field and fails the count check below
        if len(fields) > 1 and fields[-1] == "":
            fields.pop()
        if len(fields) != dim + 1:
            raise ValueError(
                f"line {lineno}: expected {dim} values for word {fields[0]!r}, got {len(fields) - 1}"
            )
        word = fields[0]
        if word in seen:
            raise ValueError(f"line {lineno}: duplicate word {word!r} (first at line {seen[word]})")
        seen[word] = lineno
        try:
            vec = np.asarray(fields[1:], dtype=np.float64)
        except ValueError:
            raise ValueError(f"line {lineno}: unparseable value for word {word!r}") from None
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"line {lineno}: non-finite value for word {word!r}")
        words.append(word)
        out[row] = vec


def _bulk_rows(
    lines: list[str], first_line: int, out: np.ndarray, words: list[str], seen: dict[str, int]
) -> bool:
    """Parse lines into out with one np.loadtxt call, as _parse_rows would.

    Returns False, leaving words and seen untouched, unless every line
    splits at its first space into a new word and exactly out.shape[1]
    finite values.  Once the separators in _LOADTXT_ONLY_SPACE are ruled
    out, loadtxt reads a subset of float() syntax (no underscores, ASCII
    digits only) to the same float64, so what it takes _parse_rows takes
    too, with the same values.
    """
    text = "".join(lines)
    if any(c in text for c in _LOADTXT_ONLY_SPACE):
        return False
    block_words = []
    values = []
    for line in lines:
        word, sep, vals = line.rstrip("\r\n").partition(" ")
        if not sep:
            return False
        block_words.append(word)
        # the one trailing space that _parse_rows drops
        values.append(vals[:-1] if vals.endswith(" ") else vals)
    with warnings.catch_warnings():
        # all-blank value parts warn "input contained no data"; the shape
        # check rejects them
        warnings.simplefilter("ignore")
        try:
            vecs = np.loadtxt(
                values, delimiter=" ", comments=None, ndmin=2, max_rows=len(values)
            )
        except ValueError:
            return False
    if vecs.shape != out.shape or not np.isfinite(vecs).all():
        return False
    if len(set(block_words)) < len(block_words) or not seen.keys().isdisjoint(block_words):
        return False
    seen.update(zip(block_words, range(first_line, first_line + len(lines))))
    words.extend(block_words)
    out[...] = vecs
    return True


def save_embeddings(path: str, lexicon: Lexicon, matrix: EmbeddingMatrix) -> None:
    """Write word2vec text format; inverse of load_embeddings up to float formatting."""
    if len(lexicon) != matrix.n_words:
        raise ValueError(
            f"lexicon size {len(lexicon)} != matrix column count {matrix.n_words}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(lexicon)} {matrix.dim}\n")
        for i, word in enumerate(lexicon.words):
            vals = " ".join(repr(float(v)) for v in matrix.data[:, i])
            fh.write(f"{word} {vals}\n")


def _nonzero(norms: np.ndarray, words: list[str]) -> np.ndarray:
    """The column norms unchanged; a zero norm raises naming its word."""
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"cannot unit-normalize zero vector for {words[int(zero[0])]!r}")
    return norms


def normalize_pair(
    lexicon: Lexicon,
    matrix: EmbeddingMatrix,
    scheme: str,
    drop_zero: bool = False,
    center: np.ndarray | None = None,
) -> tuple[Lexicon, EmbeddingMatrix]:
    """Apply a normalization scheme to a (lexicon, matrix) pair, returning new ones.

    none: copy.  unit: scale each column to unit length.  unit_center_unit:
    unit-scale, subtract the per-dimension mean across the vocabulary (or
    center, a (dim,) vector such as the mean of the vocabulary a model was
    trained on), unit-scale again; the result's center is the vector
    subtracted.  A zero-norm column raises naming its word; with
    drop_zero=True such words are removed from both sides first (ids are
    recompacted), and it raises when every column is zero.
    """
    if scheme not in NORMALIZATION_SCHEMES:
        raise ValueError(f"unknown normalization scheme {scheme!r}, expected one of {NORMALIZATION_SCHEMES}")
    if len(lexicon) != matrix.n_words:
        raise ValueError(
            f"lexicon size {len(lexicon)} != matrix column count {matrix.n_words}"
        )
    words = lexicon.words
    data = matrix.data
    if scheme == NORM_NONE:
        return Lexicon(list(words)), EmbeddingMatrix(matrix.dim, data.copy())
    norms = np.linalg.norm(data, axis=0)
    if drop_zero and not np.all(norms):
        keep = norms != 0.0
        if not keep.any():
            raise ValueError(f"all {len(words)} vectors are zero; no word is left")
        words = [w for w, k in zip(words, keep) if k]
        data = data[:, keep]
        # computed again: the norms of the narrower matrix can differ in the
        # last bit from the same columns' norms in the full one
        norms = np.linalg.norm(data, axis=0)
    # one fresh array, centred and rescaled in place; matrix.data is not touched
    data = data / _nonzero(norms, words)
    if scheme == NORM_UNIT_CENTER_UNIT:
        center = data.mean(axis=1) if center is None else center
        data -= center[:, None]
        data /= _nonzero(np.linalg.norm(data, axis=0), words)
        return Lexicon(list(words)), EmbeddingMatrix(matrix.dim, data, center)
    return Lexicon(list(words)), EmbeddingMatrix(matrix.dim, data)
