"""Seed dictionary construction: from TSV files or string-identity heuristics."""

from __future__ import annotations

import re
from dataclasses import dataclass

from lexmatch.embeddings import Lexicon

_NUMERAL = re.compile(r"[0-9]+")

PROVENANCE_TSV = "tsv"
PROVENANCE_NUMERALS = "numerals"
PROVENANCE_IDENTICAL = "identical"


@dataclass
class SeedDictionary:
    """Initial translation pairs as (source id, target id) index pairs.

    n_requested counts the usable input entries before vocabulary
    filtering (for the heuristic builders it equals the number found), so
    coverage = len(pairs) / n_requested.
    """

    pairs: list[tuple[int, int]]
    provenance: str
    n_requested: int

    @property
    def coverage(self) -> float:
        if self.n_requested == 0:
            return 0.0
        return len(self.pairs) / self.n_requested

    def __len__(self) -> int:
        return len(self.pairs)


def seed_from_tsv(path: str, lex_src: Lexicon, lex_trg: Lexicon) -> SeedDictionary:
    """Load "src<TAB>trg" pairs, skipping out-of-vocabulary entries.

    Duplicate lines collapse to one pair.  Raises if no line survives the
    vocabulary filter.
    """
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[str, str]] = set()
    n_distinct = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(
                    f"line {lineno}: expected 'src<TAB>trg', got {line!r}"
                )
            src, trg = fields
            if (src, trg) in seen:
                continue
            seen.add((src, trg))
            n_distinct += 1
            if src not in lex_src or trg not in lex_trg:
                continue
            pairs.append((lex_src.id(src), lex_trg.id(trg)))
    if not pairs:
        raise ValueError(
            f"no in-vocabulary seed pairs in {path} ({n_distinct} distinct entries read)"
        )
    return SeedDictionary(pairs, PROVENANCE_TSV, n_distinct)


def seed_numerals(lex_src: Lexicon, lex_trg: Lexicon) -> SeedDictionary:
    """Pairs (w, w) for every all-digit string present in both vocabularies."""
    pairs = [
        (lex_src.id(w), lex_trg.id(w))
        for w in lex_src.words
        if _NUMERAL.fullmatch(w) and w in lex_trg
    ]
    if not pairs:
        raise ValueError("no shared numeral strings between the vocabularies")
    return SeedDictionary(pairs, PROVENANCE_NUMERALS, len(pairs))


def seed_identical(lex_src: Lexicon, lex_trg: Lexicon) -> SeedDictionary:
    """Pairs (w, w) for every string present in both vocabularies, case-sensitive."""
    pairs = [(lex_src.id(w), lex_trg.id(w)) for w in lex_src.words if w in lex_trg]
    if not pairs:
        raise ValueError("no identical strings between the vocabularies")
    return SeedDictionary(pairs, PROVENANCE_IDENTICAL, len(pairs))
