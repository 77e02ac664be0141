"""End-to-end acceptance checks, one test per criterion.

Each test prints exactly one "criterion NN ...: PASS/FAIL" line on the
real stdout (so the line survives pytest's capture) and then asserts.
The scale check at the end is the slow one; everything else is seconds.
"""

import json
import time

import numpy as np
import pytest

from conftest import (
    graph_from_dense,
    pairs,
    planted_instance,
    random_orthogonal,
    random_sparse_graph,
    random_unit_matrix,
    tie_heavy_graph,
    unit_columns,
    write_planted_numerals,
)
from lexmatch.assignment import solve_sparse_lap
from lexmatch.candidates import edge_weight
from lexmatch.em import (
    PRIOR_CAPS,
    PRIOR_ONE_TO_MANY,
    PRIOR_ONE_TO_ONE,
    PRIOR_ONE_TO_TWO,
    PRIOR_TWO_TO_TWO,
    EmConfig,
    ModelParams,
    e_step_matching,
    e_step_one_to_many,
    procrustes,
    run_em,
)
from lexmatch.embeddings import EmbeddingMatrix
from lexmatch.evaluation import hubness, translate_batch
from lexmatch.seeds import PROVENANCE_TSV, SeedDictionary
from oracles import brute_force_matching, hungarian_dense


@pytest.fixture
def announce(capsys):
    """Print one criterion PASS/FAIL line on the live terminal, then assert."""

    def _announce(number, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"criterion {number:02d} {name}: {status}{suffix}", flush=True)
        assert ok, f"criterion {number:02d} {name}{suffix}"

    return _announce


def orthogonalize(stack):
    """QR-orthogonalize a (batch, d, d) stack with sign-fixed diagonals."""
    q, r = np.linalg.qr(stack)
    return q * np.sign(np.einsum("bii->bi", r))[:, None, :]


def test_criterion_01_planted_rotation_recovery(announce):
    """1,000-word planted rotation with noise: P@1 at least 0.95, under 60 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    inst = planted_instance(1000, 50, 0.01, 25, rng)
    params, _, _ = run_em(inst["S"], inst["T"], inst["seed"], EmConfig(k=3))
    top1 = translate_batch(params, inst["S"], inst["T"], np.arange(1000))
    p_at_1 = float(np.mean(top1 == inst["inv"]))
    elapsed = time.perf_counter() - start
    announce(
        1,
        "planted-rotation recovery",
        p_at_1 >= 0.95 and elapsed < 60.0,
        f"P@1={p_at_1:.3f}, {elapsed:.1f}s",
    )


def test_criterion_02_closed_form_rotation_is_optimal(announce):
    """The fitted rotation beats 1,000 random orthogonals and 50 nudges of
    itself on squared residual, on each of 100 random instances."""
    rng = np.random.default_rng(42)
    worst = -np.inf
    orthogonality = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 21))
        m = int(rng.integers(1, 101))
        S = rng.standard_normal((d, m))
        T = rng.standard_normal((d, m))
        omega = procrustes(S, T)
        orthogonality = max(
            orthogonality, float(np.linalg.norm(omega.T @ omega - np.eye(d)))
        )
        M = T @ S.T
        base = float(np.sum(T * T) + np.sum(S * S))
        f_opt = base - 2.0 * float(np.sum(omega * M))
        rand = orthogonalize(rng.standard_normal((1000, d, d)))
        f_rand = base - 2.0 * np.einsum("bij,ij->b", rand, M)
        skew = 1e-3 * rng.standard_normal((50, d, d))
        skew = skew - np.transpose(skew, (0, 2, 1))
        nudges = omega @ orthogonalize(np.eye(d) + skew)
        f_pert = base - 2.0 * np.einsum("bij,ij->b", nudges, M)
        worst = max(worst, f_opt - float(f_rand.min()), f_opt - float(f_pert.min()))
    announce(
        2,
        "closed-form rotation optimality",
        worst <= 1e-9 and orthogonality <= 1e-6,
        f"worst margin {worst:.2e}, orthogonality {orthogonality:.2e}",
    )


def test_criterion_03_assignment_solver_equivalence(announce):
    """Sparse solver equals the dense oracle on 200 dense instances and
    exhaustive enumeration on 200 sparse ones."""
    rng = np.random.default_rng(42)
    dense_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 31))
        W = rng.uniform(0.01, 1.0, size=(n, n))
        fast = solve_sparse_lap(graph_from_dense(W))
        oracle = hungarian_dense(W)
        dense_gap = max(dense_gap, abs(fast.total_weight - oracle.total_weight))
    exact = True
    for _ in range(200):
        n_src = int(rng.integers(1, 9))
        n_trg = int(rng.integers(1, 17 - n_src))
        g = random_sparse_graph(n_src, n_trg, int(rng.integers(0, n_src * n_trg + 1)), rng)
        fast = solve_sparse_lap(g)
        slow = brute_force_matching(g)
        exact = exact and fast.total_weight == slow.total_weight and pairs(fast) == pairs(slow)
    announce(
        3,
        "assignment solver equivalence",
        dense_gap <= 1e-9 and exact,
        f"dense gap {dense_gap:.2e}, sparse exact={exact}",
    )


def test_criterion_04_shifted_cosine_identity(announce):
    """For unit vectors and a zero reference point the edge weight is the
    cosine minus one half, to 1e-9, over 1,000 random pairs."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 51))
        omega = random_orthogonal(d, rng)
        params = ModelParams(omega, np.zeros(d))
        t = unit_columns(rng.standard_normal((d, 1)))[:, 0]
        s = unit_columns(rng.standard_normal((d, 1)))[:, 0]
        w = edge_weight(t, s, params)
        cos = float(t @ (omega @ s))
        worst = max(worst, abs(w - (cos - 0.5)))
    announce(4, "shifted-cosine identity", worst <= 1e-9, f"worst |diff| {worst:.2e}")


def test_criterion_05_matched_weight_is_monotone(announce):
    """In the exact regime (dense candidates, fixed reference point) the
    matched-weight trace never decreases across at least 10 iterations,
    on 20 random instances."""
    violations = 0
    shortest = 10**9
    for offset in range(20):
        rng = np.random.default_rng(1000 + offset)
        inst = planted_instance(20, 6, 0.08, 4, rng)
        config = EmConfig(
            k=20, update_mu=False, min_iters=12, max_iters=12, convergence_eps=1e-15
        )
        _, _, trace = run_em(inst["S"], inst["T"], inst["seed"], config)
        weights = [r.total_weight for r in trace.records]
        shortest = min(shortest, len(weights))
        if not all(b - a >= -1e-9 for a, b in zip(weights, weights[1:])):
            violations += 1
    announce(
        5,
        "matched-weight monotonicity",
        violations == 0 and shortest >= 10,
        f"{violations} violations, min length {shortest}",
    )


def test_criterion_06_hubness_mitigation(announce):
    """On a fixture with one engineered hub direction, matching-based
    training leaves a smaller biggest hub than one-to-many training,
    and occupancy counts sum to k times the query count in both."""
    rng = np.random.default_rng(42)
    d, n_src, n_trg, alpha, noise = 10, 200, 50, 0.9, 0.1
    S = random_unit_matrix(d, n_src, rng)
    R = random_orthogonal(d, rng)
    hub = unit_columns(rng.standard_normal((d, 1)))[:, 0]
    pick = rng.choice(n_src, size=n_trg, replace=False)
    beta = float(np.sqrt(1.0 - alpha**2))
    T_raw = (
        alpha * hub[:, None]
        + beta * (R @ S.data[:, pick])
        + noise * rng.standard_normal((d, n_trg))
    )
    T = EmbeddingMatrix(d, unit_columns(T_raw))
    pairs = [(int(pick[i]), i) for i in range(0, n_trg, 10)]
    seed = SeedDictionary(pairs=pairs, provenance=PROVENANCE_TSV, n_requested=len(pairs))
    maxes = {}
    identity_ok = True
    for prior in ("one_to_one", PRIOR_ONE_TO_MANY):
        config = EmConfig(k=3, prior=prior, max_iters=50)
        params, _, _ = run_em(S, T, seed, config)
        rep = hubness(params, S, T, list(range(n_src)), k=20)
        maxes[prior] = int(rep.counts.max())
        identity_ok = identity_ok and int(rep.counts.sum()) == 20 * n_src
    ok = maxes["one_to_one"] <= maxes[PRIOR_ONE_TO_MANY] and identity_ok
    announce(
        6,
        "hubness mitigation",
        ok,
        f"max N_20: 1:1 {maxes['one_to_one']} <= 1:many {maxes[PRIOR_ONE_TO_MANY]}, "
        f"counting identity {identity_ok}",
    )


def test_criterion_07_prior_variants_match_enumeration(announce):
    """1:1, 1:2 and 2:2 solved on the original graph total what exhaustive
    enumeration under the same degree caps totals, on tie-heavy graphs, and
    keep the caps."""
    checked = 0
    agree = True
    for seed in range(40):
        g = tie_heavy_graph(seed, 6)
        for prior in (PRIOR_ONE_TO_ONE, PRIOR_ONE_TO_TWO, PRIOR_TWO_TO_TWO):
            caps = PRIOR_CAPS[prior]
            fast = solve_sparse_lap(g, *caps)
            slow = brute_force_matching(g, *caps)
            agree = agree and fast.total_weight == slow.total_weight
            fast.assert_degrees(*caps)
            checked += 1
    announce(7, "prior variants vs enumeration", agree, f"{checked} instances")


def test_criterion_08_mode_contrast(announce):
    """Two targets sharing one best source: one-to-many aligns both to it,
    the matching model gives it to exactly one."""
    S = EmbeddingMatrix(2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    T = EmbeddingMatrix(
        2,
        unit_columns(
            np.array([[0.95, 0.9], [0.31224989991991992, 0.43588989435406733]])
        ),
    )
    params = ModelParams(np.eye(2), np.zeros(2))
    a = e_step_one_to_many(S, T, params, EmConfig(k=2, prior=PRIOR_ONE_TO_MANY))
    m = e_step_matching(S, T, params, EmConfig(k=2))
    both_on_zero = a.src.tolist() == [0, 0]
    matched_on_zero = [i for i, j in pairs(m) if j == 0]
    announce(
        8,
        "mode contrast",
        both_on_zero and len(matched_on_zero) == 1,
        f"one-to-many {a.src.tolist()}, matching {pairs(m)}",
    )


def test_criterion_09_byte_identical_reruns(announce, tmp_path):
    """Two identical induce invocations write byte-identical dictionaries
    and traces."""
    from lexmatch.cli import main

    planted = write_planted_numerals(tmp_path)
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        rc = main([
            "induce",
            "--src-emb", planted["src"],
            "--trg-emb", planted["trg"],
            "--seed", "numerals",
            "--out-dict", str(out / "dict.tsv"),
            "--report", str(out / "report.json"),
            "--quiet",
        ])
        assert rc == 0
        outs.append(out)
    dict_same = (outs[0] / "dict.tsv").read_bytes() == (outs[1] / "dict.tsv").read_bytes()
    trace_a = json.loads((outs[0] / "report.json").read_text())["trace"]
    trace_b = json.loads((outs[1] / "report.json").read_text())["trace"]
    trace_same = json.dumps(trace_a) == json.dumps(trace_b)
    announce(
        9,
        "byte-identical reruns",
        dict_same and trace_same,
        f"dictionary {dict_same}, trace {trace_same}",
    )


def test_criterion_10_scale_smoke(announce):
    """200k x 200k vocabularies, d=50, k=3, matching restricted to the top
    40k of each side: one full EM iteration completes, timing recorded."""
    rng = np.random.default_rng(42)
    d, n, top = 50, 200_000, 40_000
    S = EmbeddingMatrix(d, unit_columns(rng.standard_normal((d, n))))
    perm = np.concatenate(
        [rng.permutation(top), top + rng.permutation(n - top)]
    )
    R = random_orthogonal(d, rng)
    T_raw = R @ S.data[:, perm] + 0.01 * rng.standard_normal((d, n))
    T = EmbeddingMatrix(d, unit_columns(T_raw))
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    seed_src = rng.choice(top, size=100, replace=False)
    pairs = [(int(j), int(inv[j])) for j in sorted(seed_src)]
    seed = SeedDictionary(pairs=pairs, provenance=PROVENANCE_TSV, n_requested=100)
    config = EmConfig(k=3, rank_restrict=(top, top), max_iters=1)
    start = time.perf_counter()
    params, match, trace = run_em(S, T, seed, config)
    elapsed = time.perf_counter() - start
    ok = len(trace.records) == 1 and len(match) > 0 and elapsed < 1800.0
    announce(
        10,
        "scale smoke",
        ok,
        f"matched {len(match)} pairs in {elapsed:.1f}s (one iteration)",
    )
