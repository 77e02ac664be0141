"""Each output check passes on the program's real output and fails on a corrupted copy.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from gen import generate, random_orthogonal  # noqa: E402
from workloads import Instance  # noqa: E402

from lexmatch import cli  # noqa: E402

TINY = Instance(
    name="tiny", stream=9, n=400, dim=20, noise=0.1, window=50, restrict=200,
    seed_kind="numerals", numeral_every=4, n_gold=100, n_query=10,
    oov_words=("zz-oov",), src_offset=0.5, trg_offset=0.5, normalize="unit_center_unit",
)
SEED = 7


def run_cli(argv, stdin_text=None) -> str:
    out = io.StringIO()
    saved = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
    finally:
        sys.stdin = saved
    return out.getvalue()


@pytest.fixture(scope="module")
def real(tmp_path_factory):
    """The program's outputs on the tiny instance, and the truth to check them by."""
    d = str(tmp_path_factory.mktemp("tiny"))
    generate(TINY, SEED, d)
    emb = ["--src-emb", f"{d}/src.vec", "--trg-emb", f"{d}/trg.vec"]
    model = f"{d}/model.npz"
    run_cli(["induce", *emb, "--seed", "numerals", "--rank-restrict", "200",
             "--normalize", TINY.normalize, "--out-dict", f"{d}/dict.tsv",
             "--model-out", model, "--report", f"{d}/report.json", "--quiet"])
    with open(f"{d}/queries.txt", encoding="utf-8") as fh:
        queries = fh.read()
    run_cli(["hubness", "--model", model, *emb, "--queries", f"{d}/gold.tsv",
             "--k", "5", "--out", f"{d}/hub.tsv"])
    with open(f"{d}/dict.tsv", encoding="utf-8") as fh:
        dictionary = fh.read()
    with open(f"{d}/hub.tsv", encoding="utf-8") as fh:
        hub = fh.read()
    return {
        "truth": checks.Truth(TINY, SEED),
        "omega": checks.load_model(model),
        "model": model,
        "dict": dictionary,
        "evaluate": run_cli(["evaluate", "--model", model, *emb,
                             "--eval-dict", f"{d}/gold.tsv", "--json"]),
        "hubness": hub,
        "query": run_cli(["query", "--model", model, *emb, "--stdin", "--topn", "3"],
                         queries),
    }


def test_evaluate_matches_brute_force_and_floor(real):
    p1, _ = checks.check_evaluate(real["evaluate"], real["omega"], real["truth"], 0.95)
    assert p1 > 0.9
    n = real["truth"].gold_src.size
    wrong = f'{{"coverage": 1.0, "p_at_1": {p1 - 1 / n}}}'
    with pytest.raises(CheckError, match="brute force"):
        checks.check_evaluate(wrong, real["omega"], real["truth"], 0.95)
    # a map that is not the trained one: its own P@1 agrees, the floor does not hold
    other = random_orthogonal(TINY.dim, np.random.default_rng(0))
    hits, _ = checks.precision(other, real["truth"])
    consistent = f'{{"coverage": 1.0, "p_at_1": {hits / n}}}'
    with pytest.raises(CheckError, match="below"):
        checks.check_evaluate(consistent, other, real["truth"], 0.95)


def test_dictionary_weights_and_caps(real):
    assert checks.check_dictionary(real["dict"], real["truth"], "1:1") == 200
    lines = real["dict"].splitlines()
    s, t, _ = lines[0].split("\t")
    negative = "\n".join([f"{s}\t{t}\t-0.000001", *lines[1:]])
    with pytest.raises(CheckError, match="< 0"):
        checks.check_dictionary(negative, real["truth"], "1:1")
    s2 = lines[1].split("\t")[0]
    shared_target = "\n".join([*lines, f"{s2}\t{t}\t0.5"])
    with pytest.raises(CheckError, match="degree 2 > 1"):
        checks.check_dictionary(shared_target, real["truth"], "1:1")
    checks.check_dictionary(shared_target, real["truth"], "2:2")
    # targets past the restricted prefix are never matched, so free to add
    two = [*lines, f"{s}\tt399\t0.5"]
    for prior in ("1:2", "2:2", "1:many"):
        checks.check_dictionary("\n".join(two), real["truth"], prior)
    with pytest.raises(CheckError, match="source .* degree 2 > 1"):
        checks.check_dictionary("\n".join(two), real["truth"], "1:1")
    with pytest.raises(CheckError, match="source .* degree 3 > 2"):
        checks.check_dictionary("\n".join([*two, f"{s}\tt398\t0.5"]), real["truth"], "1:2")


def test_map_is_orthogonal_and_near_planted(real, tmp_path):
    checks.check_planted_map(real["omega"], real["truth"], 1.1)
    tilt = random_orthogonal(TINY.dim, np.random.default_rng(1))
    near = real["omega"] @ (0.9 * np.eye(TINY.dim) + 0.1 * tilt)
    u, _, vt = np.linalg.svd(near)
    with pytest.raises(CheckError, match="fit to the true pairs"):
        checks.check_planted_map(u @ vt, real["truth"], 1.1)
    with np.load(real["model"]) as data:
        fields = dict(data)
    fields["omega"] = fields["omega"] * 1.001
    np.savez(tmp_path / "scaled.npz", **fields)
    with pytest.raises(CheckError, match="not orthogonal"):
        checks.load_model(str(tmp_path / "scaled.npz"))


def test_hubness_counts_sum_and_recount(real):
    k = 5
    top = checks.check_hubness(real["hubness"], real["omega"], real["truth"], k)
    assert top >= k
    lines = real["hubness"].splitlines()
    with pytest.raises(CheckError, match="misses"):
        checks.check_hubness("\n".join(lines[:-1]), real["omega"], real["truth"], k)
    # one count moved between two targets, written out sorted again: the sum
    # and the order hold, only the recount can tell
    counts = {w: int(c) for w, c in (line.split("\t") for line in lines)}
    w1, c1 = lines[0].split("\t")
    w2 = lines[1].split("\t")[0]
    counts[w1] += 1
    counts[w2] -= 1
    trg_id = real["truth"].trg_id
    moved = sorted(counts.items(), key=lambda wc: (-wc[1], trg_id[wc[0]]))
    with pytest.raises(CheckError, match="recount"):
        checks.check_hubness("\n".join(f"{w}\t{c}" for w, c in moved), real["omega"],
                             real["truth"], k)
    more = [f"{w1}\t{int(c1) + 1}", *lines[1:]]
    with pytest.raises(CheckError, match="sum N_5"):
        checks.check_hubness("\n".join(more), real["omega"], real["truth"], k)
    last = len(lines) - 1  # a target with fewer counts than the first
    assert int(lines[last].split("\t")[1]) < int(c1)
    swapped = [lines[last], *lines[1:last], lines[0]]
    with pytest.raises(CheckError, match="not sorted"):
        checks.check_hubness("\n".join(swapped), real["omega"], real["truth"], k)


def test_query_cosines_and_ranks(real):
    checks.check_query(real["query"], real["omega"], real["truth"], 3)
    lines = real["query"].splitlines()
    w, t, c = lines[0].split("\t")
    off = [f"{w}\t{t}\t{float(c) + 2e-6:.6f}", *lines[1:]]
    with pytest.raises(CheckError, match="cosine"):
        checks.check_query("\n".join(off), real["omega"], real["truth"], 3)
    w2, t2, c2 = lines[1].split("\t")
    swapped = [f"{w}\t{t2}\t{c2}", f"{w}\t{t}\t{c}", *lines[2:]]
    with pytest.raises(CheckError, match="rank 1"):
        checks.check_query("\n".join(swapped), real["omega"], real["truth"], 3)
    assert lines[-1] == "zz-oov\tOOV"
    with pytest.raises(CheckError, match="OOV"):
        checks.check_query("\n".join(lines[:-1]), real["omega"], real["truth"], 3)
