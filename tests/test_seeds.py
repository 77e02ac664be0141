import re

import pytest

from lexmatch.embeddings import Lexicon
from lexmatch.evaluation import load_eval_dictionary, load_wordsim_tsv
from lexmatch.seeds import seed_from_tsv, seed_identical, seed_numerals


def tsv(tmp_path, text):
    p = tmp_path / "seed.tsv"
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestSeedFromTsv:
    src = Lexicon(["uno", "dos", "tres"])
    trg = Lexicon(["one", "two", "three"])

    def test_all_in_vocabulary(self, tmp_path):
        """Three usable lines give three pairs at full coverage."""
        seed = seed_from_tsv(
            tsv(tmp_path, "uno\tone\ndos\ttwo\ntres\tthree\n"), self.src, self.trg
        )
        assert seed.pairs == [(0, 0), (1, 1), (2, 2)]
        assert seed.coverage == 1.0

    def test_oov_line_skipped(self, tmp_path):
        """An out-of-vocabulary target drops its line but keeps the rest."""
        seed = seed_from_tsv(
            tsv(tmp_path, "uno\tone\ndos\tzwei\ntres\tthree\n"), self.src, self.trg
        )
        assert seed.pairs == [(0, 0), (2, 2)]
        assert seed.coverage == pytest.approx(2 / 3)

    def test_duplicate_line_collapses(self, tmp_path):
        """A repeated pair counts once in both numerator and denominator."""
        seed = seed_from_tsv(
            tsv(tmp_path, "uno\tone\nuno\tone\ndos\ttwo\n"), self.src, self.trg
        )
        assert seed.pairs == [(0, 0), (1, 1)]
        assert seed.n_requested == 2
        assert seed.coverage == 1.0

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(ValueError, match="line 2"):
            seed_from_tsv(tsv(tmp_path, "uno\tone\ndos two\n"), self.src, self.trg)

    def test_zero_coverage_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no in-vocabulary"):
            seed_from_tsv(tsv(tmp_path, "foo\tbar\n"), self.src, self.trg)


READERS = {
    "seed": lambda path: seed_from_tsv(
        path, Lexicon(["uno", "dos"]), Lexicon(["one", "two"])
    ).pairs,
    "gold": load_eval_dictionary,
    "wordsim": load_wordsim_tsv,
}


@pytest.mark.parametrize("reader, text, expected", [
    # CRLF line endings and blank lines, inside the file and at its end
    ("seed", "uno\tone\r\n\r\ndos\ttwo\r\n\r\n", [(0, 0), (1, 1)]),
    ("gold", "uno\tone\r\n\r\ndos\ttwo\r\n\r\n", {"uno": {"one"}, "dos": {"two"}}),
    ("wordsim", "uno\tone\t1.5\r\n\r\ndos\ttwo\t2\r\n\r\n",
     [("uno", "one", 1.5), ("dos", "two", 2.0)]),
    # a wrong field count names the 1-based line, blank lines included
    ("seed", "uno\tone\r\n\r\ndos two\r\n", "line 3: expected 'src<TAB>trg', got 'dos two'"),
    ("gold", "uno\tone\n\nuno\tone\tdos\n",
     "line 3: expected 'src<TAB>trg', got 'uno\\tone\\tdos'"),
    ("wordsim", "uno\tone\t1\n\ndos\ttwo\r\n",
     "line 3: expected 'src<TAB>trg<TAB>score', got 'dos\\ttwo'"),
    ("wordsim", "uno\tone\t1\n\ndos\ttwo\thigh\n", "line 3: unparseable score 'high'"),
], ids=["seed-crlf-blank", "gold-crlf-blank", "wordsim-crlf-blank", "seed-fields",
        "gold-fields", "wordsim-fields", "wordsim-score"])
def test_tsv_line_rules(tmp_path, reader, text, expected):
    """The three TSV readers share one set of line rules and messages."""
    path = tsv(tmp_path, text)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            READERS[reader](path)
    else:
        assert READERS[reader](path) == expected



@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["no-bom", "bom"])
@pytest.mark.parametrize("reader, text, expected", [
    ("seed", "uno\tone\ndos\ttwo\n", [(0, 0), (1, 1)]),
    ("gold", "uno\tone\ndos\ttwo\n", {"uno": {"one"}, "dos": {"two"}}),
    ("wordsim", "uno\tone\t1.5\ndos\ttwo\t2\n", [("uno", "one", 1.5), ("dos", "two", 2.0)]),
], ids=["seed", "gold", "wordsim"])
def test_byte_order_mark_not_read_as_text(tmp_path, reader, text, expected, bom):
    """A UTF-8 byte-order mark before the first line is not part of its
    first word, so that line's entry is read like every other."""
    assert READERS[reader](tsv(tmp_path, bom + text)) == expected

class TestSeedNumerals:
    def test_shared_numeral_pairs(self):
        """An all-digit string in both vocabularies pairs with itself."""
        src = Lexicon(["1990", "casa", "7"])
        trg = Lexicon(["haus", "1990"])
        seed = seed_numerals(src, trg)
        assert seed.pairs == [(0, 1)]
        assert seed.coverage == 1.0

    def test_partial_digit_strings_excluded(self):
        """route66 has digits but is not all digits, so it never pairs."""
        src = Lexicon(["route66", "66"])
        trg = Lexicon(["route66", "66"])
        seed = seed_numerals(src, trg)
        assert seed.pairs == [(1, 1)]

    def test_one_sided_numeral_excluded(self):
        """A numeral present only in the source vocabulary cannot pair."""
        src = Lexicon(["7", "42"])
        trg = Lexicon(["42"])
        seed = seed_numerals(src, trg)
        assert seed.pairs == [(1, 0)]

    def test_no_shared_numerals_rejected(self):
        with pytest.raises(ValueError):
            seed_numerals(Lexicon(["7"]), Lexicon(["8"]))

    def test_subset_of_identical(self):
        """Every numeral pair is also an identical-string pair."""
        src = Lexicon(["1990", "berlin", "42", "x"])
        trg = Lexicon(["42", "berlin", "1990"])
        numerals = set(seed_numerals(src, trg).pairs)
        identical = set(seed_identical(src, trg).pairs)
        assert numerals <= identical


class TestSeedIdentical:
    def test_shared_string_pairs(self):
        src = Lexicon(["berlin", "hund"])
        trg = Lexicon(["dog", "berlin"])
        seed = seed_identical(src, trg)
        assert seed.pairs == [(0, 1)]

    def test_case_sensitive_by_default(self):
        """Berlin and berlin are different strings."""
        src = Lexicon(["Berlin"])
        trg = Lexicon(["berlin"])
        with pytest.raises(ValueError):
            seed_identical(src, trg)

    def test_disjoint_vocabularies_rejected(self):
        with pytest.raises(ValueError):
            seed_identical(Lexicon(["a"]), Lexicon(["b"]))
