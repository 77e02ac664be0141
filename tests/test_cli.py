import io
import json

import numpy as np
import pytest

from conftest import unit_columns, write_planted_numerals
from lexmatch.cli import main
from lexmatch.em import ModelParams, save_model
from lexmatch.embeddings import NORM_UNIT, EmbeddingMatrix, Lexicon, save_embeddings


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """The 40-word numeral-planted pair of files (see write_planted_numerals)."""
    return write_planted_numerals(tmp_path_factory.mktemp("planted"))


def induce(planted, out_dir, *extra):
    args = [
        "induce",
        "--src-emb", planted["src"],
        "--trg-emb", planted["trg"],
        "--seed", "numerals",
        "--out-dict", str(out_dir / "dict.tsv"),
        "--report", str(out_dir / "report.json"),
        "--quiet",
    ]
    return main(args + list(extra))


class TestInduce:
    def test_recovers_planted_dictionary(self, planted, tmp_path):
        """The induced dictionary is exactly the planted word mapping."""
        assert induce(planted, tmp_path, "--model-out", str(tmp_path / "m.npz")) == 0
        rows = [
            line.split("\t")
            for line in (tmp_path / "dict.tsv").read_text().splitlines()
        ]
        assert len(rows) == 40
        for s, t, w in rows:
            j = planted["src_words"].index(s)
            assert planted["trg_words"][planted["inv"][j]] == t
            assert float(w) > 0.0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["result"]["induced_pairs"] == 40
        assert report["config"]["prior"] == "one_to_one"
        assert len(report["trace"]) == report["result"]["iterations"]
        assert (tmp_path / "m.npz").exists()

    def test_default_report_path(self, planted, tmp_path):
        """Without --report the report lands next to the dictionary."""
        rc = main([
            "induce",
            "--src-emb", planted["src"],
            "--trg-emb", planted["trg"],
            "--seed", "numerals",
            "--out-dict", str(tmp_path / "out.tsv"),
            "--quiet",
        ])
        assert rc == 0
        assert (tmp_path / "out.tsv.report.json").exists()

    def test_byte_identical_reruns(self, planted, tmp_path):
        """Identical invocations write identical dictionaries and traces."""
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        assert induce(planted, a) == 0
        assert induce(planted, b) == 0
        assert (a / "dict.tsv").read_bytes() == (b / "dict.tsv").read_bytes()
        ra = json.loads((a / "report.json").read_text())
        rb = json.loads((b / "report.json").read_text())
        assert ra["trace"] == rb["trace"]
        ra.pop("timings"), rb.pop("timings")
        assert ra == rb

    def test_vocab_size_restricts_words(self, planted, tmp_path):
        """--vocab-size keeps only the first N words of each language."""
        assert induce(planted, tmp_path, "--vocab-size", "20") == 0
        rows = [
            line.split("\t")
            for line in (tmp_path / "dict.tsv").read_text().splitlines()
        ]
        assert rows
        for s, t, _ in rows:
            assert planted["src_words"].index(s) < 20
            assert planted["trg_words"].index(t) < 20

    def test_rank_restrict_limits_matching(self, planted, tmp_path):
        """--rank-restrict leaves low-frequency words out of the matching."""
        assert induce(planted, tmp_path, "--rank-restrict", "20") == 0
        rows = [
            line.split("\t")
            for line in (tmp_path / "dict.tsv").read_text().splitlines()
        ]
        assert rows
        for s, t, _ in rows:
            assert planted["src_words"].index(s) < 20
            assert planted["trg_words"].index(t) < 20

    def test_identical_seed_recovers_planted_dictionary(self, planted, tmp_path):
        """--seed identical pairs the 8 numerals both files share and
        recovers the planted word mapping."""
        assert induce(planted, tmp_path, "--seed", "identical") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["seed_dictionary"]["provenance"] == "identical"
        assert report["seed_dictionary"]["pairs"] == 8
        rows = [
            tuple(line.split("\t")[:2])
            for line in (tmp_path / "dict.tsv").read_text().splitlines()
        ]
        words_s, words_t, inv = planted["src_words"], planted["trg_words"], planted["inv"]
        assert sorted(rows) == sorted((w, words_t[inv[j]]) for j, w in enumerate(words_s))

    def test_one_to_many_prior_runs(self, planted, tmp_path):
        assert induce(planted, tmp_path, "--prior", "1:many") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["prior"] == "one_to_many"
        assert report["result"]["induced_pairs"] > 0

    def test_invalid_prior_is_usage_error(self, planted, tmp_path):
        with pytest.raises(SystemExit) as err:
            induce(planted, tmp_path, "--prior", "3:3")
        assert err.value.code == 2

    def test_invalid_seed_spec_is_usage_error(self, planted, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "induce",
                "--src-emb", planted["src"],
                "--trg-emb", planted["trg"],
                "--seed", "telepathy",
                "--out-dict", str(tmp_path / "d.tsv"),
            ])
        assert err.value.code == 2

    def test_missing_embedding_file_fails_cleanly(self, planted, tmp_path, capsys):
        rc = main([
            "induce",
            "--src-emb", str(tmp_path / "absent.vec"),
            "--trg-emb", planted["trg"],
            "--seed", "numerals",
            "--out-dict", str(tmp_path / "d.tsv"),
            "--quiet",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_blank_embedding_row_fails_with_line(self, planted, tmp_path, capsys):
        """A blank line among the declared rows is a one-line error naming it."""
        blank = tmp_path / "blank.vec"
        blank.write_text("3 2\na 1 0\n\nb 0 1\n")
        rc = main([
            "induce",
            "--src-emb", str(blank),
            "--trg-emb", planted["trg"],
            "--seed", "numerals",
            "--out-dict", str(tmp_path / "d.tsv"),
            "--quiet",
        ])
        assert rc == 1
        assert "error: line 3: expected 2 values" in capsys.readouterr().err


@pytest.fixture(scope="module")
def model(planted, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("model")
    assert induce(planted, tmp, "--model-out", str(tmp / "model.npz")) == 0
    return str(tmp / "model.npz")


class TestEvaluate:
    def test_perfect_model_scores_one(self, planted, model, capsys):
        """The recovered model translates every gold entry correctly."""
        rc = main([
            "evaluate",
            "--model", model,
            "--src-emb", planted["src"],
            "--trg-emb", planted["trg"],
            "--eval-dict", planted["gold"],
            "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"coverage": 1.0, "p_at_1": 1.0}

    def test_text_output(self, planted, model, capsys):
        rc = main([
            "evaluate",
            "--model", model,
            "--src-emb", planted["src"],
            "--trg-emb", planted["trg"],
            "--eval-dict", planted["gold"],
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p_at_1\t1.000000" in out

    def test_wordsim_transposition(self, tmp_path, capsys):
        """The 3-triple file with one transposed pair scores exactly 0.5."""
        cos = np.array([0.2, 0.9, 0.5])
        T = np.vstack([cos, np.sqrt(1 - cos**2)])
        S = np.tile(np.array([[1.0], [0.0]]), (1, 3))
        save_embeddings(tmp_path / "s.vec", Lexicon(["a", "b", "c"]), EmbeddingMatrix(2, S))
        save_embeddings(tmp_path / "t.vec", Lexicon(["X", "Y", "Z"]), EmbeddingMatrix(2, T))
        save_model(str(tmp_path / "m.npz"), ModelParams(np.eye(2), np.zeros(2)), NORM_UNIT)
        (tmp_path / "ws.tsv").write_text("a\tX\t1\nb\tY\t2\nc\tZ\t3\n")
        rc = main([
            "evaluate",
            "--model", str(tmp_path / "m.npz"),
            "--src-emb", str(tmp_path / "s.vec"),
            "--trg-emb", str(tmp_path / "t.vec"),
            "--wordsim", str(tmp_path / "ws.tsv"),
            "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spearman"] == pytest.approx(0.5)

    def test_empty_eval_dict_fails(self, planted, model, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        rc = main([
            "evaluate",
            "--model", model,
            "--src-emb", planted["src"],
            "--trg-emb", planted["trg"],
            "--eval-dict", str(empty),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_modes_are_exclusive(self, planted, model, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "evaluate",
                "--model", model,
                "--src-emb", planted["src"],
                "--trg-emb", planted["trg"],
                "--eval-dict", planted["gold"],
                "--wordsim", planted["gold"],
            ])
        assert err.value.code == 2


class TestHubness:
    @pytest.fixture()
    def hub_dir(self, tmp_path):
        """Three queries hugging e1, two targets on the axes."""
        S = unit_columns(np.array([[0.99, 0.98, 0.97], [0.1, 0.2, 0.24]]))
        save_embeddings(tmp_path / "s.vec", Lexicon(["q0", "q1", "q2"]), EmbeddingMatrix(2, S))
        save_embeddings(tmp_path / "t.vec", Lexicon(["hub", "spoke"]),
                        EmbeddingMatrix(2, np.eye(2)))
        save_model(str(tmp_path / "m.npz"), ModelParams(np.eye(2), np.zeros(2)), NORM_UNIT)
        (tmp_path / "queries.tsv").write_text("q0\tx\nq1\tx\nq2\tx\n")
        return tmp_path

    def base_args(self, d):
        return [
            "hubness",
            "--model", str(d / "m.npz"),
            "--src-emb", str(d / "s.vec"),
            "--trg-emb", str(d / "t.vec"),
            "--queries", str(d / "queries.tsv"),
        ]

    def test_single_hub_counts(self, hub_dir, capsys):
        """k=1 with three co-directed queries puts all mass on one target."""
        rc = main(self.base_args(hub_dir) + ["--k", "1"])
        assert rc == 0
        assert capsys.readouterr().out == "hub\t3\nspoke\t0\n"

    def test_counting_identity_in_output(self, hub_dir, tmp_path):
        rc = main(self.base_args(hub_dir) + ["--k", "2", "--out", str(tmp_path / "h.tsv")])
        assert rc == 0
        counts = [
            int(line.split("\t")[1])
            for line in (tmp_path / "h.tsv").read_text().splitlines()
        ]
        assert sum(counts) == 2 * 3

    def test_k_exceeding_targets_fails(self, hub_dir, capsys):
        rc = main(self.base_args(hub_dir) + ["--k", "5"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestQuery:
    def base_args(self, planted, model):
        return [
            "query",
            "--model", model,
            "--src-emb", planted["src"],
            "--trg-emb", planted["trg"],
        ]

    def test_top1_is_planted_translation(self, planted, model, capsys):
        """The nearest neighbor of a trained word is its planted pair."""
        word = planted["src_words"][12]
        expected = planted["trg_words"][planted["inv"][12]]
        rc = main(self.base_args(planted, model) + ["--word", word, "--topn", "1"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [f"{word}\t{expected}\t1.000000"]

    def test_oov_word_marked(self, planted, model, capsys):
        rc = main(
            self.base_args(planted, model)
            + ["--word", "zzz", "--word", planted["src_words"][0], "--topn", "1"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "zzz\tOOV"
        assert len(lines) == 2

    def test_batch_prints_single_queries_in_order(self, planted, model, capsys):
        """Several words print what one query per word prints, OOV lines in place."""
        src = planted["src_words"]
        words = [src[5], "zzz", src[2], src[5]]
        expected = []
        for w in words:
            assert main(self.base_args(planted, model) + ["--word", w, "--topn", "3"]) == 0
            expected += capsys.readouterr().out.splitlines()
        batch = [a for w in words for a in ("--word", w)]
        assert main(self.base_args(planted, model) + batch + ["--topn", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == expected
        assert len(expected) == 10

    def test_stdin_queries(self, planted, model, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(planted["src_words"][3] + "\n"))
        rc = main(self.base_args(planted, model) + ["--stdin", "--topn", "1"])
        assert rc == 0
        assert capsys.readouterr().out.startswith(planted["src_words"][3] + "\t")

    def test_topn_zero_is_usage_error(self, planted, model):
        with pytest.raises(SystemExit) as err:
            main(self.base_args(planted, model) + ["--word", "x", "--topn", "0"])
        assert err.value.code == 2

    def test_no_words_fails(self, planted, model, capsys):
        rc = main(self.base_args(planted, model))
        assert rc == 1
        assert "error:" in capsys.readouterr().err
