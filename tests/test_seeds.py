import pytest

from lexmatch.embeddings import Lexicon
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
