import ctypes
import io
import json
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import random_orthogonal, unit_columns, write_planted_numerals
import lexmatch.cli
from lexmatch.cli import main
from lexmatch.em import Model, ModelParams, save_model
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

    def test_report_says_why_training_stopped(self, planted, tmp_path):
        """Capped at one iteration, the report says max_iters and not converged."""
        assert induce(planted, tmp_path, "--max-iters", "1") == 0
        result = json.loads((tmp_path / "report.json").read_text())["result"]
        assert result["stop_reason"] == "max_iters"
        assert result["converged"] is False

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

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty file, expected 'n d' header"),
        ("a b\n", "line 1: malformed header 'a b', expected two integers"),
        ("-1 5\n", "line 1: invalid header counts n=-1 d=5"),
        ("1 9\n1990" + " 1" * 9 + "\n", "dimension mismatch: source 9, target 8"),
    ], ids=["empty", "non-integer", "negative", "9-d"])
    def test_bad_source_file_fails(self, planted, tmp_path, capsys, text, message):
        """A source file that cannot be read, or that does not match the 8-d
        target file, fails with one error line."""
        bad = tmp_path / "bad.vec"
        bad.write_text(text)
        rc = main([
            "induce",
            "--src-emb", str(bad),
            "--trg-emb", planted["trg"],
            "--seed", "numerals",
            "--out-dict", str(tmp_path / "d.tsv"),
            "--quiet",
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.fixture(scope="module")
def model(planted, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("model")
    assert induce(planted, tmp, "--model-out", str(tmp / "model.npz")) == 0
    return str(tmp / "model.npz")


def read_dictionary(path):
    return [tuple(line.split("\t")[:2]) for line in path.read_text().splitlines()]


# main() once per trailing "quiet" or "plain" word, each call's stderr ended by "end"
MAIN_IN_TURN = """import sys
from lexmatch.cli import main
cut = sys.argv.index("--")
for word in sys.argv[cut + 1:]:
    main(sys.argv[1:cut] + (["--quiet"] if word == "quiet" else []))
    print("end", file=sys.stderr)
"""


@pytest.mark.parametrize("order", [("quiet", "plain"), ("plain", "quiet")],
                         ids=["quiet-then-plain", "plain-then-quiet"])
def test_quiet_decides_each_call_in_one_process(planted, tmp_path, order):
    """A --quiet run logs no iteration line, and a plain one logs them, in either order."""
    argv = ["induce", "--src-emb", planted["src"], "--trg-emb", planted["trg"],
            "--seed", "numerals", "--out-dict", str(tmp_path / "dict.tsv")]
    src = os.path.dirname(os.path.dirname(lexmatch.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", MAIN_IN_TURN, *argv, "--", *order],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    logs = out.stderr.split("end\n")
    assert logs[-1] == ""
    assert [("iter=" in log) for log in logs[:-1]] == [word == "plain" for word in order]


def test_two_to_two_prior_gives_second_partners(tmp_path):
    """On clustered words, --prior 2:2 writes a dictionary other than 1:1's,
    in which some source and some target take two partners and none more."""
    rng = np.random.default_rng(12)
    n, d = 60, 20
    centres = rng.standard_normal((d, n // 5))
    S = unit_columns(np.repeat(centres, 5, axis=1) + 0.3 * rng.standard_normal((d, n)))
    T = unit_columns(random_orthogonal(d, rng) @ S + 0.1 * rng.standard_normal((d, n)))
    src, trg = [f"s{j}" for j in range(n)], [f"t{j}" for j in range(n)]
    save_embeddings(tmp_path / "src.vec", Lexicon(src), EmbeddingMatrix(d, S))
    save_embeddings(tmp_path / "trg.vec", Lexicon(trg), EmbeddingMatrix(d, T))
    (tmp_path / "seed.tsv").write_text("".join(f"s{j}\tt{j}\n" for j in range(0, n, 3)))
    dicts = {}
    for prior in ("1:1", "2:2"):
        out = tmp_path / f"{prior.replace(':', '')}.tsv"
        assert main([
            "induce", "--src-emb", str(tmp_path / "src.vec"),
            "--trg-emb", str(tmp_path / "trg.vec"), "--seed", f"tsv:{tmp_path / 'seed.tsv'}",
            "--prior", prior, "--k", "5", "--max-iters", "3", "--out-dict", str(out),
            "--report", str(tmp_path / "report.json"), "--quiet",
        ]) == 0
        dicts[prior] = read_dictionary(out)
    assert dicts["2:2"] != dicts["1:1"]
    src_deg = Counter(s for s, _ in dicts["2:2"])
    trg_deg = Counter(t for _, t in dicts["2:2"])
    assert max(src_deg.values()) == 2 and max(trg_deg.values()) == 2


def test_zero_vector_under_normalize_none_counts_as_cosine_zero(tmp_path):
    """A zero source vector left in place by --normalize none adds a cosine of
    0 to the mean instead of NaN, so the mean-cosine stop test can fire."""
    (tmp_path / "src.vec").write_text("3 2\na 0 0\nb 1 0\nc 0 1\n")
    (tmp_path / "trg.vec").write_text("3 2\nx 1 0\ny 0 1\nz 0.6 0.8\n")
    (tmp_path / "seed.tsv").write_text("b\tx\nc\ty\n")
    assert main([
        "induce", "--src-emb", str(tmp_path / "src.vec"),
        "--trg-emb", str(tmp_path / "trg.vec"), "--seed", f"tsv:{tmp_path / 'seed.tsv'}",
        "--normalize", "none", "--max-iters", "10", "--out-dict", str(tmp_path / "d.tsv"),
        "--report", str(tmp_path / "report.json"), "--quiet",
    ]) == 0
    assert ("a", "z") in read_dictionary(tmp_path / "d.tsv")
    report = json.loads((tmp_path / "report.json").read_text())
    assert [r["mean_cosine"] for r in report["trace"]] == [2 / 3, 2 / 3]
    assert report["result"]["stop_reason"] == "converged"


def strict_json(text):
    """json.loads that fails on NaN, Infinity and -Infinity."""
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "0", "-1e-6"])
def test_eps_must_be_finite_and_positive(tmp_path, capsys, eps):
    """--eps nan or inf would disable the stop test and write a report that is
    not JSON; they fail with one error line and write nothing."""
    (tmp_path / "src.vec").write_text("3 2\na 0.8 0.6\nb 1 0\nc 0 1\n")
    (tmp_path / "trg.vec").write_text("3 2\nx 1 0\ny 0 1\nz 0.6 0.8\n")
    (tmp_path / "seed.tsv").write_text("b\tx\nc\ty\n")
    argv = [
        "induce", "--src-emb", str(tmp_path / "src.vec"),
        "--trg-emb", str(tmp_path / "trg.vec"), "--seed", f"tsv:{tmp_path / 'seed.tsv'}",
        "--max-iters", "7", "--out-dict", str(tmp_path / "d.tsv"),
        "--report", str(tmp_path / "report.json"), "--quiet",
    ]
    assert main([*argv, f"--eps={eps}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: convergence_eps must be finite and > 0") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()
    assert main([*argv, "--eps", "1e-6"]) == 0
    report = strict_json((tmp_path / "report.json").read_text())
    assert report["config"]["convergence_eps"] == 1e-6
    assert report["result"]["stop_reason"] == "converged"
    assert report["result"]["iterations"] < 7


def test_all_zero_source_fails_every_evaluation_command(planted, model, tmp_path, capsys):
    """evaluate, hubness and query exit 1 on a source file whose every vector is zero."""
    zero = tmp_path / "zero.vec"
    save_embeddings(zero, Lexicon(planted["src_words"]), EmbeddingMatrix(8, np.zeros((8, 40))))
    common = ["--model", model, "--src-emb", str(zero), "--trg-emb", planted["trg"]]
    for argv in (
        ["evaluate", *common, "--eval-dict", planted["gold"]],
        ["hubness", *common, "--queries", planted["gold"], "--out", str(tmp_path / "h.tsv")],
        ["query", *common, "--word", planted["src_words"][0]],
    ):
        assert main(argv) == 1
        assert "all 40 vectors are zero" in capsys.readouterr().err


def one_nan(a):
    a = a.copy()
    a[0, 0] = np.nan
    return a


@pytest.mark.parametrize("key, change, message", [
    ("omega", one_nan, "non-finite model parameters"),
    ("mu", lambda a: a[:3], "model arrays inconsistent with dim 8: (8, 8), (3,)"),
    ("normalization", lambda a: np.array("l2"), "model declares unknown normalization 'l2'"),
    ("trg_words", lambda a: a.astype(np.int16),
     "model's stored target side: words must be a uint8 array, got int16 (165,)"),
    ("trg_vectors", lambda a: a.astype(np.float32),
     "model's stored target side: vectors must be float64 with shape (8, n), "
     "got float32 (8, 40)"),
], ids=["omega-nan", "mu-shape", "normalization", "trg-words-dtype", "trg-vectors-dtype"])
def test_inconsistent_model_fails_evaluate(planted, model, tmp_path, capsys, key, change, message):
    """A model file with one array changed fails with one error line naming it."""
    with np.load(model) as data:
        arrays = dict(data)
    arrays[key] = change(arrays[key])
    np.savez(tmp_path / "bad.npz", **arrays)
    rc = main([
        "evaluate",
        "--model", str(tmp_path / "bad.npz"),
        "--src-emb", planted["src"],
        "--trg-emb", planted["trg"],
        "--eval-dict", planted["gold"],
    ])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
        save_model(str(tmp_path / "m.npz"), Model(ModelParams(np.eye(2), np.zeros(2)), NORM_UNIT))
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

    @pytest.mark.parametrize("side", ["gold scores", "cosines"])
    def test_wordsim_constant_side_fails(self, tmp_path, capsys, side):
        """Spearman's rho is undefined when either side is constant: one
        error line naming it, exit 1, nothing on stdout."""
        cos = np.array([0.2, 0.9, 0.5]) if side == "gold scores" else np.full(3, 0.5)
        T = np.vstack([cos, np.sqrt(1 - cos**2)])
        S = np.tile(np.array([[1.0], [0.0]]), (1, 3))
        save_embeddings(tmp_path / "s.vec", Lexicon(["a", "b", "c"]), EmbeddingMatrix(2, S))
        save_embeddings(tmp_path / "t.vec", Lexicon(["X", "Y", "Z"]), EmbeddingMatrix(2, T))
        save_model(str(tmp_path / "m.npz"), Model(ModelParams(np.eye(2), np.zeros(2)), NORM_UNIT))
        argv = [
            "evaluate", "--model", str(tmp_path / "m.npz"),
            "--src-emb", str(tmp_path / "s.vec"), "--trg-emb", str(tmp_path / "t.vec"),
            "--wordsim", str(tmp_path / "ws.tsv"), "--json",
        ]
        scores = "222" if side == "gold scores" else "123"
        (tmp_path / "ws.tsv").write_text("".join(
            f"{s}\t{t}\t{v}\n" for s, t, v in zip("abc", "XYZ", scores)
        ))
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: the {side} are constant; Spearman's correlation is undefined\n"
        if side == "gold scores":
            # distinct scores: the same embeddings give a defined rho
            (tmp_path / "ws.tsv").write_text("a\tX\t1\nb\tY\t3\nc\tZ\t2\n")
            assert main(argv) == 0
            assert strict_json(capsys.readouterr().out) == {"coverage": 1.0, "spearman": 1.0}

    def wordsim_args(self, planted, model, path):
        return [
            "evaluate",
            "--model", model,
            "--src-emb", planted["src"],
            "--trg-emb", planted["trg"],
            "--wordsim", str(path),
        ]

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_wordsim_non_finite_score_fails(self, planted, model, tmp_path, capsys, score,
                                            as_json):
        """A nan or infinite gold score is rejected with its line number, in
        place of a NaN correlation or an infinity ranked as the largest score."""
        lines = Path(planted["gold"]).read_text().splitlines()[:6]
        gold = [line.split("\t") for line in lines]
        scores = ["1", "2", score, "4", "5", "6"]
        ws = tmp_path / "ws.tsv"
        ws.write_text("".join(f"{s}\t{t}\t{v}\n" for (s, t), v in zip(gold, scores)))
        argv = self.wordsim_args(planted, model, ws) + (["--json"] if as_json else [])
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: line 3: non-finite score {score!r}\n")

    def test_empty_wordsim_file_fails(self, planted, model, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        assert main(self.wordsim_args(planted, model, empty)) == 1
        assert capsys.readouterr() == ("", f"error: empty word-similarity file {empty}\n")

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
        save_model(str(tmp_path / "m.npz"), Model(ModelParams(np.eye(2), np.zeros(2)), NORM_UNIT))
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

    def test_ties_and_zeros_listed_by_lower_id(self, tmp_path):
        """Equal counts, zero counts included, come in target id order, not
        word order, after the higher counts."""
        S = unit_columns(np.array([[0.1, 0.2, -0.1, 0.99, -0.99], [0.99, 0.98, 0.99, 0.1, 0.1]]))
        T = np.array([[1.0, 0.0, -1.0, 0.0, -1.0], [0.0, 1.0, 0.0, -1.0, -1.0]])
        words = ["q0", "q1", "q2", "q3", "q4"]
        save_embeddings(tmp_path / "s.vec", Lexicon(words), EmbeddingMatrix(2, S))
        save_embeddings(tmp_path / "t.vec", Lexicon(["c", "b", "a", "z", "y"]),
                        EmbeddingMatrix(2, unit_columns(T)))
        save_model(str(tmp_path / "m.npz"), Model(ModelParams(np.eye(2), np.zeros(2)), NORM_UNIT))
        (tmp_path / "queries.tsv").write_text("".join(f"{w}\tx\n" for w in words))
        rc = main(self.base_args(tmp_path) + ["--k", "1", "--out", str(tmp_path / "h.tsv")])
        assert rc == 0
        assert (tmp_path / "h.tsv").read_text() == "b\t3\nc\t1\na\t1\nz\t0\ny\t0\n"

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


# run in a fresh interpreter: a heap that earlier tests left with large free
# chunks could serve the block without any mapping
_MAPPED_PROBE = """
import ctypes
import lexmatch.cli

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.malloc.restype = ctypes.c_void_p
libc.free.argtypes = [ctypes.c_void_p]
libc.mallinfo2.restype = MallInfo2
assert lexmatch.cli._fix_mmap_threshold()
libc.free(libc.malloc(16 << 20))
mapped = libc.mallinfo2().hblkhd
block = libc.malloc(12 << 20)
grown = libc.mallinfo2().hblkhd - mapped
libc.free(block)
print(grown, libc.mallinfo2().hblkhd - mapped)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_large_blocks_stay_mapped_after_a_larger_one_is_freed():
    """Freeing a 16 MiB block does not move a 12 MiB one onto the heap.

    glibc's default would raise its mmap threshold to 16 MiB on that free.
    """
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("glibc before 2.33 has no mallinfo2")
    src = os.path.dirname(os.path.dirname(lexmatch.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _MAPPED_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    grown, left = map(int, out.split())
    assert grown >= 12 << 20
    assert left == 0
