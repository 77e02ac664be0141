"""Word embedding I/O and normalization.

Embeddings are kept as a (Lexicon, EmbeddingMatrix) pair: the lexicon maps
words to contiguous integer ids, the matrix stores one embedding per column
so that column i belongs to word i of the lexicon.  File format is the
word2vec text format: a "n d" header line followed by n lines of
"word v1 ... vd", UTF-8 encoded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        self.index = {}
        for i, w in enumerate(self.words):
            if w in self.index:
                raise ValueError(f"duplicate word {w!r} in lexicon")
            self.index[w] = i

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
    """Dense embedding matrix, shape (dim, n_words); column i = word i."""

    dim: int
    data: np.ndarray

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


def load_embeddings(
    path: str, max_vocab: int | None = None
) -> tuple[Lexicon, EmbeddingMatrix]:
    """Read word2vec text format into float64.

    Tolerates \\r\\n line endings, a missing trailing newline and blank
    trailing lines.  Raises ValueError with a 1-based line number for a
    malformed header, a row whose value count disagrees with the header
    dimension, a duplicate word, a non-finite value, or a row past the
    header's count.  max_vocab keeps only the first rows, i.e. the most
    frequent words in frequency-sorted files, and ignores the rest.
    """
    words: list[str] = []
    seen: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
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

        n_keep = n_declared if max_vocab is None else min(n_declared, max_vocab)
        data = np.empty((n_keep, dim))
        for row in range(n_keep):
            lineno = row + 2
            line = fh.readline()
            if not line:
                raise ValueError(f"line {lineno}: unexpected end of file, header declared {n_declared} rows")
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
            data[row] = vec
        if max_vocab is None:
            for lineno, line in enumerate(fh, start=n_keep + 2):
                if line.strip():
                    raise ValueError(
                        f"line {lineno}: row beyond the {n_declared} the header declares"
                    )

    return Lexicon(words), EmbeddingMatrix(dim, data.T)


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


def _unit_columns(data: np.ndarray, words: list[str]) -> np.ndarray:
    norms = np.linalg.norm(data, axis=0)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"cannot unit-normalize zero vector for {words[int(zero[0])]!r}")
    return data / norms


def normalize_pair(
    lexicon: Lexicon,
    matrix: EmbeddingMatrix,
    scheme: str,
    drop_zero: bool = False,
) -> tuple[Lexicon, EmbeddingMatrix]:
    """Apply a normalization scheme to a (lexicon, matrix) pair, returning new ones.

    none: copy.  unit: scale each column to unit length.  unit_center_unit:
    unit-scale, subtract the per-dimension mean across the vocabulary,
    unit-scale again.  A zero-norm column raises naming its word; with
    drop_zero=True such words are removed from both sides first (ids are
    recompacted).
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
    if drop_zero:
        keep = np.linalg.norm(data, axis=0) != 0.0
        if not np.all(keep):
            words = [w for w, k in zip(words, keep) if k]
            data = data[:, keep]
    data = _unit_columns(data, words)
    if scheme == NORM_UNIT_CENTER_UNIT:
        data = data - data.mean(axis=1, keepdims=True)
        data = _unit_columns(data, words)
    return Lexicon(list(words)), EmbeddingMatrix(matrix.dim, data)
