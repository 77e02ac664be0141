"""evaluate, hubness and query score the space that induce trained in, and
take each side from the model, parsing no text, when its file is the one
that induce parsed in full."""

import contextlib
import hashlib
import io
import json
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexmatch.cli
from conftest import random_orthogonal
from lexmatch.cli import main
from lexmatch.em import load_model
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
from lexmatch.evaluation import (
    hubness,
    load_eval_dictionary,
    precision_at_1,
    topn_neighbors,
)

N_TRAIN = 40  # rows induce keeps under --vocab-size
N_FILE = 60  # rows in each file


def run(argv):
    """(exit code, stdout, stderr) of one command run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def text_loads():
    """Rows parsed by each text load, per side: "src" for a file named src*
    or a /dev/fd pipe, "trg" for any other file."""
    rows = {"src": [], "trg": []}
    real = lexmatch.cli.load_embeddings

    def spy(path, *args, **kwargs):
        lex, mat = real(path, *args, **kwargs)
        src = os.path.basename(path).startswith("src") or path.startswith("/dev/fd/")
        rows["src" if src else "trg"].append(len(lex))
        return lex, mat

    with mock.patch.object(lexmatch.cli, "load_embeddings", spy):
        yield rows


@contextlib.contextmanager
def no_text_parsed():
    """Any text load fails its command."""
    refuse = mock.Mock(side_effect=AssertionError("parsed an embedding file"))
    with mock.patch.object(lexmatch.cli, "load_embeddings", refuse):
        yield


def emb_args(model, src, trg):
    return ["--model", str(model), "--src-emb", str(src), "--trg-emb", str(trg)]


def commands(model, src, trg, d, words, topn=1, k=1):
    """argv of evaluate, hubness and query against one pair of files."""
    args = emb_args(model, src, trg)
    return {
        "evaluate": ["evaluate", *args, "--eval-dict", str(d / "gold.tsv"), "--json"],
        "hubness": ["hubness", *args, "--queries", str(d / "gold.tsv"), "--k", str(k)],
        "query": ["query", *args, *(a for w in words for a in ("--word", w)),
                  "--topn", str(topn)],
    }


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A planted pair whose rows past N_TRAIN lean hard along a shared
    direction, so that the centring mean of the whole file differs from
    that of its first N_TRAIN rows on both sides.  gold.tsv pairs the first
    30 words; seed.tsv the first 20."""
    d = tmp_path_factory.mktemp("space")
    rng = np.random.default_rng(7)
    dim = 10
    offset = rng.standard_normal(dim)
    S = rng.standard_normal((dim, N_FILE)) + 0.5 * offset[:, None]
    S[:, N_TRAIN:] += 3.0 * offset[:, None]
    R = random_orthogonal(dim, rng)
    T = R @ S + 0.05 * rng.standard_normal(S.shape)
    src_words = [f"s{j}" for j in range(N_FILE)]
    trg_words = [f"t{j}" for j in range(N_FILE)]
    save_embeddings(d / "src.vec", Lexicon(src_words), EmbeddingMatrix(dim, S))
    save_embeddings(d / "trg.vec", Lexicon(trg_words), EmbeddingMatrix(dim, T))
    (d / "gold.tsv").write_text("".join(f"s{j}\tt{j}\n" for j in range(30)))
    (d / "seed.tsv").write_text("".join(f"s{j}\tt{j}\n" for j in range(20)))
    return d


def induce(d, out, *extra):
    model = out / "model.npz"
    rc, _, err = run([
        "induce", "--src-emb", str(d / "src.vec"), "--trg-emb", str(d / "trg.vec"),
        "--seed", f"tsv:{d / 'seed.tsv'}", "--out-dict", str(out / "dict.tsv"),
        "--model-out", str(model), "--max-iters", "5", "--quiet", *extra,
    ])
    assert rc == 0, err
    return model


@pytest.fixture(scope="module")
def ucu_model(files, tmp_path_factory):
    """unit_center_unit, every row parsed: the model stores both sides."""
    return induce(files, tmp_path_factory.mktemp("full"), "--normalize", NORM_UNIT_CENTER_UNIT)


QUERY_WORDS = ["s3", "zz-oov", "s11", "s3", "s29"]


class TestTrainedSpace:
    """CLI figures equal in-process calls on the matrices training used."""

    @pytest.mark.parametrize("cut", [N_TRAIN, None])
    def test_commands_score_the_training_matrices(self, files, tmp_path, cut):
        extra = ["--normalize", NORM_UNIT_CENTER_UNIT]
        if cut is not None:
            extra += ["--vocab-size", str(cut)]
        model = induce(files, tmp_path, *extra)

        space = load_model(str(model))
        params = space.params
        lex_s, S = load_embeddings(str(files / "src.vec"), max_vocab=cut)
        lex_t, T = load_embeddings(str(files / "trg.vec"), max_vocab=cut)
        lex_s, S = normalize_pair(lex_s, S, space.normalization)
        lex_t, T = normalize_pair(lex_t, T, space.normalization)
        assert space.src_center.tobytes() == S.center.tobytes()
        assert space.trg_center.tobytes() == T.center.tobytes()
        if cut is None:
            for side, lex, M, name in ((space.src, lex_s, S, "src"), (space.trg, lex_t, T, "trg")):
                data = (files / f"{name}.vec").read_bytes()
                assert side.sha256 == hashlib.sha256(data).hexdigest()
                assert side.lexicon.words == lex.words
                assert side.matrix.data.tobytes() == M.data.tobytes()
        else:
            assert space.src is None and space.trg is None

        cmds = commands(model, files / "src.vec", files / "trg.vec", files, QUERY_WORDS)
        with text_loads() as rows:
            results = {name: run(argv) for name, argv in cmds.items()}
        assert all(rc == 0 for rc, _, _ in results.values()), results
        parsed = [N_FILE] * 3 if cut else []
        assert rows == {"src": parsed, "trg": parsed}

        gold = load_eval_dictionary(str(files / "gold.tsv"))
        p1, coverage = precision_at_1(params, S, T, gold, lex_s, lex_t)
        assert json.loads(results["evaluate"][1]) == {"p_at_1": p1, "coverage": coverage}

        ids = sorted(lex_s.id(w) for w in gold)
        counts = hubness(params, S, T, ids, 1)
        printed = dict(line.split("\t") for line in results["hubness"][1].splitlines())
        assert {w: int(c) for w, c in printed.items() if w in lex_t} == {
            lex_t.word(i): int(c) for i, c in enumerate(counts)
        }

        known = [w for w in QUERY_WORDS if w in lex_s]
        neighbors = iter(topn_neighbors(params, S, T, [lex_s.id(w) for w in known], 1))
        expected = []
        for w in QUERY_WORDS:
            if w not in lex_s:
                expected.append(f"{w}\tOOV")
                continue
            expected += [f"{w}\t{lex_t.word(i)}\t{c:.6f}" for i, c in next(neighbors)]
        assert results["query"][1].splitlines() == expected


def full_parse_outputs(model, src, trg, d, words, topn=1, k=1):
    """What evaluate, hubness and query print when they parse both files in
    full: each normalized on the model's centring vector, or on its own
    mean where the model stores none (version 1)."""
    loaded = load_model(str(model))
    params, scheme = loaded.params, loaded.normalization
    lex_s, S = normalize_pair(*load_embeddings(str(src)), scheme, drop_zero=True,
                              center=loaded.src_center)
    lex_t, T = normalize_pair(*load_embeddings(str(trg)), scheme, drop_zero=True,
                              center=loaded.trg_center)
    gold = load_eval_dictionary(str(d / "gold.tsv"))
    p1, coverage = precision_at_1(params, S, T, gold, lex_s, lex_t)
    counts = hubness(params, S, T, sorted(lex_s.id(w) for w in gold if w in lex_s), k).tolist()
    known = [lex_s.id(w) for w in words if w in lex_s]
    neighbors = iter(topn_neighbors(params, S, T, known, topn))
    query = ""
    for w in words:
        if w not in lex_s:
            query += f"{w}\tOOV\n"
            continue
        query += "".join(f"{w}\t{lex_t.word(i)}\t{c:.6f}\n" for i, c in next(neighbors))
    return {
        "evaluate": json.dumps({"p_at_1": p1, "coverage": coverage}, sort_keys=True) + "\n",
        "hubness": "".join(
            f"{lex_t.word(i)}\t{counts[i]}\n"
            for i in sorted(range(len(counts)), key=lambda i: (-counts[i], i))
        ),
        "query": query,
    }


class TestFullParseGate:
    """Every file that is not the one induce parsed in full is parsed and
    checked in full."""

    @pytest.mark.parametrize("bad", ["0.5x", "inf"])
    def test_malformed_unscored_row_fails_every_command(self, files, ucu_model, tmp_path, bad):
        """A row rewritten after training, on either side (s49 is in no gold
        entry and no query), fails with its line number."""
        row = 50
        for side in ("src", "trg"):
            lines = (files / f"{side}.vec").read_text().splitlines(keepends=True)
            fields = lines[row].split(" ")
            fields[3] = bad
            lines[row] = " ".join(fields)
            (tmp_path / f"{side}.vec").write_text("".join(lines))
            paths = {"src": files / "src.vec", "trg": files / "trg.vec",
                     side: tmp_path / f"{side}.vec"}
            for name, argv in commands(ucu_model, paths["src"], paths["trg"],
                                       files, QUERY_WORDS).items():
                rc, _, err = run(argv)
                assert rc == 1, (side, name)
                assert f"error: line {row + 1}: " in err, (side, name, err)

    def test_version_1_model_reproduces_old_outputs(self, files, ucu_model, tmp_path):
        with np.load(ucu_model) as data:
            fields = {k: data[k] for k in ("dim", "omega", "mu", "normalization")}
        v1 = tmp_path / "v1.npz"
        with open(v1, "wb") as fh:
            np.savez(fh, format_version=np.int64(1), **fields)
        cmds = commands(v1, files / "src.vec", files / "trg.vec", files, QUERY_WORDS, 3, 4)
        with text_loads() as rows:
            outputs = {name: run(argv)[1] for name, argv in cmds.items()}
        assert rows == {"src": [N_FILE] * 3, "trg": [N_FILE] * 3}
        assert outputs == full_parse_outputs(
            v1, files / "src.vec", files / "trg.vec", files, QUERY_WORDS, 3, 4
        )

    def test_version_2_model_reproduces_old_outputs(self, files, ucu_model, tmp_path):
        """A version-2 file, with the source digest and dropped words it
        carried, is parsed in full on both sides and centred on its vectors."""
        with np.load(ucu_model) as data:
            fields = {k: data[k] for k in ("dim", "omega", "mu", "normalization",
                                           "src_center", "trg_center", "src_sha256")}
        v2 = tmp_path / "v2.npz"
        with open(v2, "wb") as fh:
            np.savez(fh, format_version=np.int64(2), src_dropped=np.array([], dtype=str),
                     **fields)
        cmds = commands(v2, files / "src.vec", files / "trg.vec", files, QUERY_WORDS, 3, 4)
        with text_loads() as rows:
            outputs = {name: run(argv)[1] for name, argv in cmds.items()}
        assert rows == {"src": [N_FILE] * 3, "trg": [N_FILE] * 3}
        with no_text_parsed():
            stored = {name: run(argv)[1] for name, argv in commands(
                ucu_model, files / "src.vec", files / "trg.vec", files, QUERY_WORDS, 3, 4
            ).items()}
        assert outputs == stored == full_parse_outputs(
            v2, files / "src.vec", files / "trg.vec", files, QUERY_WORDS, 3, 4
        )

    def test_vocab_size_model_reproduces_old_outputs(self, files, tmp_path):
        model = induce(files, tmp_path, "--normalize", NORM_UNIT,
                       "--vocab-size", str(N_TRAIN))
        cmds = commands(model, files / "src.vec", files / "trg.vec", files, QUERY_WORDS, 3, 4)
        with text_loads() as rows:
            outputs = {name: run(argv)[1] for name, argv in cmds.items()}
        assert rows == {"src": [N_FILE] * 3, "trg": [N_FILE] * 3}
        assert outputs == full_parse_outputs(
            model, files / "src.vec", files / "trg.vec", files, QUERY_WORDS, 3, 4
        )

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_source_is_parsed_in_full(self, files, ucu_model):
        data = (files / "src.vec").read_bytes()
        r, w = os.pipe()

        def feed():
            with os.fdopen(w, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            argv = commands(ucu_model, f"/dev/fd/{r}", files / "trg.vec", files,
                            QUERY_WORDS, 3)["query"]
            with text_loads() as rows:
                piped = run(argv)
        finally:
            writer.join(timeout=10)
            os.close(r)
        assert not writer.is_alive()
        assert rows == {"src": [N_FILE], "trg": []}
        argv = commands(ucu_model, files / "src.vec", files / "trg.vec", files,
                        QUERY_WORDS, 3)["query"]
        assert piped == run(argv)


def tampered(model, path, **fields):
    """model's container with fields replaced."""
    with np.load(model) as data:
        blob = dict(data)
    blob.update(fields)
    with open(path, "wb") as fh:
        np.savez(fh, **blob)
    return path


@pytest.mark.parametrize("center", [np.zeros(9), np.full(10, np.nan)])
def test_bad_centring_vector_is_rejected(ucu_model, tmp_path, center):
    bad = tampered(ucu_model, tmp_path / "bad.npz", src_center=center)
    with pytest.raises(ValueError, match="centring vectors must be finite"):
        load_model(str(bad))


class TestStoredSideChecks:
    """A version-3 file whose stored side is inconsistent fails every command
    with one error line, before any file is read."""

    @pytest.mark.parametrize("side", ["src", "trg"])
    @pytest.mark.parametrize("case", ["count", "duplicate", "non-finite", "digest"])
    def test_inconsistent_side_is_rejected(self, files, ucu_model, tmp_path, side, case):
        with np.load(ucu_model) as data:
            words = bytes(data[f"{side}_words"]).decode().split("\n")
            vectors = data[f"{side}_vectors"].copy()
            digest = str(data[f"{side}_sha256"][()])
        def encoded(names):
            return np.frombuffer("\n".join(names).encode(), np.uint8)

        if case == "count":
            fields = {f"{side}_words": encoded(words[:-1])}
            message = f"{N_FILE - 1} words for {N_FILE} columns"
        elif case == "duplicate":
            words[7] = words[3]
            fields = {f"{side}_words": encoded(words)}
            message = f"duplicate word {words[3]!r} in lexicon"
        elif case == "non-finite":
            vectors[2, 5] = np.inf
            fields = {f"{side}_vectors": vectors}
            message = "embedding matrix contains non-finite entries"
        else:
            fields = {f"{side}_sha256": digest[:-1]}
            message = f"sha256 must be 64 hex digits, got {digest[:-1]!r}"
        bad = tampered(ucu_model, tmp_path / "bad.npz", **fields)
        label = {"src": "source", "trg": "target"}[side]
        with pytest.raises(ValueError, match="model's stored"):
            load_model(str(bad))
        with no_text_parsed():
            for name, argv in commands(bad, files / "src.vec", files / "trg.vec", files,
                                       QUERY_WORDS).items():
                rc, out, err = run(argv)
                assert (rc, out) == (1, ""), name
                assert err == f"error: model's stored {label} side: {message}\n", name


class TestCheckDimensions:
    @pytest.mark.parametrize("side", ["src", "trg"])
    def test_other_dimension_names_the_file(self, files, ucu_model, tmp_path, side):
        words = [f"{side[0]}{j}" for j in range(N_FILE)]
        other = tmp_path / f"{side}-wide.vec"
        save_embeddings(other, Lexicon(words), EmbeddingMatrix(11, np.ones((11, N_FILE))))
        paths = {"src": files / "src.vec", "trg": files / "trg.vec", side: other}
        for name, argv in commands(ucu_model, paths["src"], paths["trg"], files,
                                   QUERY_WORDS).items():
            rc, _, err = run(argv)
            assert rc == 1, name
            assert err == (f"error: {other}: embedding dimension 11 does not match "
                           "the model's 10\n"), name


def same_rows_copy(src, dst):
    """src with its first row written with one more trailing space: the
    same rows, another digest."""
    lines = src.read_text().splitlines(keepends=True)
    lines[1] = lines[1].rstrip("\n").rstrip(" ") + " \n"
    dst.write_text("".join(lines))


@st.composite
def sessions(draw):
    """Files, a scheme and the words the commands score."""
    scheme = draw(st.sampled_from([NORM_NONE, NORM_UNIT, NORM_UNIT_CENTER_UNIT]))
    # centring needs two words left that differ, and two dimensions to differ in
    centred = scheme == NORM_UNIT_CENTER_UNIT
    n = draw(st.integers(2 if centred else 1, 9))
    dim = draw(st.sampled_from([2, 3, 9, 20, 40] if centred else [1, 2, 3, 9, 20, 40]))
    seed = draw(st.integers(0, 2**32 - 1))
    zero = draw(st.sets(st.integers(0, n - 1), max_size=n - (2 if centred else 1)))
    words = [f"w{j}" for j in range(n)]
    pick = st.sampled_from(words + ["zz-oov"])
    queries = draw(st.lists(pick, min_size=1, max_size=4))
    gold = draw(st.lists(st.tuples(pick, pick), min_size=1, max_size=4))
    triples = draw(st.lists(st.tuples(pick, pick, st.integers(0, 5)), min_size=2, max_size=5))
    return n, dim, seed, scheme, sorted(zero), queries, gold, triples


class TestStoredBytes:
    """The stored sides give the bytes that the full parse gives."""

    @settings(deadline=None, max_examples=60)
    @given(sessions())
    def test_stored_and_full_parse_print_the_same(self, tmp_path_factory, session):
        n, dim, seed, scheme, zero, queries, gold, triples = session
        d = tmp_path_factory.mktemp("session")
        rng = np.random.default_rng(seed)
        words = [f"w{j}" for j in range(n)]
        S = rng.standard_normal((dim, n)) + 2.0
        S[:, zero] = 0.0
        T = S + 0.1 * rng.standard_normal((dim, n))
        T[:, zero[:1]] = 0.0
        save_embeddings(d / "src.vec", Lexicon(words), EmbeddingMatrix(dim, S))
        save_embeddings(d / "trg.vec", Lexicon(words), EmbeddingMatrix(dim, T))
        same_rows_copy(d / "src.vec", d / "src-copy.vec")
        same_rows_copy(d / "trg.vec", d / "trg-copy.vec")
        (d / "gold.tsv").write_text("".join(f"{s}\t{t}\n" for s, t in gold))
        (d / "ws.tsv").write_text("".join(f"{s}\t{t}\t{v}\n" for s, t, v in triples))
        rc, _, err = run([
            "induce", "--src-emb", str(d / "src.vec"), "--trg-emb", str(d / "trg.vec"),
            "--seed", "identical", "--normalize", scheme, "--drop-zero",
            "--max-iters", "0", "--out-dict", str(d / "dict.tsv"),
            "--model-out", str(d / "m.npz"), "--quiet",
        ])
        assert rc == 0, err
        model = load_model(str(d / "m.npz"))
        # the stored lexicons already leave the dropped zero vectors out
        dropped = set(zero) if scheme != NORM_NONE else set()
        assert model.src.lexicon.words == [w for j, w in enumerate(words) if j not in dropped]
        assert model.trg.lexicon.words == [
            w for j, w in enumerate(words) if j not in (dropped & set(zero[:1]))
        ]

        outputs = {}
        for src, trg in (("src.vec", "trg.vec"), ("src-copy.vec", "trg-copy.vec")):
            cmds = commands(d / "m.npz", d / src, d / trg, d, queries, 3, min(2, n))
            cmds["wordsim"] = ["evaluate", *emb_args(d / "m.npz", d / src, d / trg),
                               "--wordsim", str(d / "ws.tsv"), "--json"]
            if src == "src.vec":
                with no_text_parsed():
                    outputs[src] = {name: run(argv) for name, argv in cmds.items()}
            else:
                with text_loads() as rows:
                    outputs[src] = {name: run(argv) for name, argv in cmds.items()}
                assert rows == {"src": [n] * 4, "trg": [n] * 4}
        assert outputs["src.vec"] == outputs["src-copy.vec"]


class TestNumpyTraps:
    """Why evaluation takes the stored matrix or normalizes the whole file,
    never a selection of its columns: on 300-dimensional rows, the norms of
    a lone column and of an F-ordered selection differ in the last bit from
    the full matrix's."""

    @pytest.fixture(scope="class")
    def wide(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("wide")
        rng = np.random.default_rng(3)
        n, dim = 50, 300
        words = [f"w{j}" for j in range(n)]
        S = rng.standard_normal((dim, n)) + 0.5
        save_embeddings(d / "src.vec", Lexicon(words), EmbeddingMatrix(dim, S))
        T = rng.standard_normal((dim, n))
        save_embeddings(d / "trg.vec", Lexicon(words), EmbeddingMatrix(dim, T))
        (d / "gold.tsv").write_text("w0\tw0\n")
        same_rows_copy(d / "src.vec", d / "src-copy.vec")
        rc, _, err = run([
            "induce", "--src-emb", str(d / "src.vec"), "--trg-emb", str(d / "trg.vec"),
            "--seed", "identical", "--normalize", NORM_UNIT_CENTER_UNIT, "--k", "1",
            "--max-iters", "1", "--out-dict", str(d / "dict.tsv"),
            "--model-out", str(d / "m.npz"), "--quiet",
        ])
        assert rc == 0, err
        return d

    def test_the_traps_are_real(self, wide):
        _, full = load_embeddings(str(wide / "src.vec"))
        norms = np.linalg.norm(full.data, axis=0)
        lone = np.array([np.linalg.norm(full.data[:, [j]], axis=0)[0] for j in range(50)])
        picked = full.data[:, np.arange(0, 50, 2)]
        assert picked.flags.f_contiguous and not picked.flags.c_contiguous
        assert (lone != norms).any()
        assert (np.linalg.norm(picked, axis=0) != norms[::2]).any()

    @pytest.mark.parametrize("word", ["w0", "w1", "w49"])
    def test_one_word_query(self, wide, word):
        printed = []
        for src in ("src.vec", "src-copy.vec"):
            argv = commands(wide / "m.npz", wide / src, wide / "trg.vec", wide, [word], 5)
            with text_loads() as rows:
                printed.append(run(argv["query"]))
            printed.append(rows)
        assert printed[1] == {"src": [], "trg": []}
        assert printed[3] == {"src": [50], "trg": []}
        assert printed[0] == printed[2]
