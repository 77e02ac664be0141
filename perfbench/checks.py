"""Output checks made apart from the program under test.

Each check reads what a `lexmatch` command wrote and compares it with the
planted truth that gen.build() rebuilds from the seed, or with properties
every correct output has.  None of them calls into lexmatch: vectors are
normalized and scored here with plain numpy.  A failed check raises
CheckError naming what was wrong.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gen import build
from workloads import Instance

# cosine blocks are kept to about this many elements (32 MB)
BLOCK_ELEMENTS = 4_000_000

# two candidates whose cosines differ by less than this may be ranked either
# way by two correct float64 implementations
TIE_EPS = 1e-9

# target and source degree caps of each prior (None: no cap)
DEGREE_CAPS = {"1:1": (1, 1), "1:2": (1, 2), "2:2": (2, 2), "1:many": (1, None)}


class CheckError(Exception):
    """An output broke a property it must have."""


def unit_columns(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt((x * x).sum(axis=0))


def normalize(x: np.ndarray, scheme: str) -> np.ndarray:
    """The README's normalization schemes, written out independently."""
    if scheme == "none":
        return x.copy()
    u = unit_columns(x)
    if scheme == "unit":
        return u
    if scheme == "unit_center_unit":
        return unit_columns(u - u.mean(axis=1)[:, None])
    raise ValueError(f"unknown scheme {scheme!r}")


class Truth:
    """The planted instance as the checks see it: normalized vectors and answers."""

    def __init__(self, inst: Instance, seed: int):
        b = build(inst, seed)
        self.inst = inst
        self.src_words: list[str] = b["src_words"]
        self.trg_words: list[str] = b["trg_words"]
        self.src_id = {w: j for j, w in enumerate(self.src_words)}
        self.trg_id = {w: i for i, w in enumerate(self.trg_words)}
        self.S = normalize(b["S"], inst.normalize)
        self.T = normalize(b["T"], inst.normalize)
        self.T_unit = unit_columns(self.T)
        self.R = b["R"]
        self.perm = b["perm"]
        self.gold_src = b["gold_src"]
        self.queries: list[str] = b["queries"]

    def block_rows(self) -> int:
        return max(1, BLOCK_ELEMENTS // self.T.shape[1])

    def cosines(self, omega: np.ndarray, src_ids: np.ndarray) -> np.ndarray:
        """(len(src_ids), n_trg) cosines of the mapped sources against every target."""
        q = unit_columns(omega @ self.S[:, src_ids])
        return q.T @ self.T_unit


def load_model(path: str) -> np.ndarray:
    """Omega from a saved model, checked to be orthogonal."""
    with np.load(path, allow_pickle=False) as data:
        omega = np.array(data["omega"], dtype=np.float64)
        mu = np.array(data["mu"], dtype=np.float64)
    d = omega.shape[0]
    if omega.shape != (d, d) or mu.shape != (d,):
        raise CheckError(f"model shapes {omega.shape}, {mu.shape}")
    err = np.linalg.norm(omega.T @ omega - np.eye(d))
    if not err < 1e-8:
        raise CheckError(f"omega is not orthogonal: ||O^T O - I||_F = {err:.3e}")
    return omega


def procrustes(src: np.ndarray, trg: np.ndarray) -> np.ndarray:
    """Orthogonal W minimizing ||trg - W src||_F, by SVD."""
    u, _, vt = np.linalg.svd(trg @ src.T)
    return u @ vt


def check_planted_map(omega: np.ndarray, truth: Truth, slack: float) -> tuple[float, float]:
    """Omega is as close to the planted rotation as the noise lets any map be.

    The yardstick is the Procrustes fit to the true pairs of the restricted
    prefix, the best a learner that recovered every pair could do.
    """
    top = truth.inst.restrict or truth.inst.n
    src = np.arange(top)
    best = procrustes(truth.S[:, src], truth.T[:, truth.perm[src]])
    scale = math.sqrt(omega.shape[0])
    dist = np.linalg.norm(omega - truth.R) / scale
    floor = np.linalg.norm(best - truth.R) / scale
    if not dist <= floor * slack:
        raise CheckError(f"||Omega - R||_F / sqrt(d) = {dist:.4f}, more than {slack} times "
                         f"the {floor:.4f} of a fit to the true pairs")
    return dist, floor


def check_dictionary(text: str, truth: Truth, prior: str) -> int:
    """Rows are known words with weight >= 0 under the prior's degree caps."""
    trg_cap, src_cap = DEGREE_CAPS[prior]
    src_deg: dict[str, int] = {}
    trg_deg: dict[str, int] = {}
    pairs: set[tuple[str, str]] = set()
    problems: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split("\t")
        if len(fields) != 3:
            raise CheckError(f"dictionary line {lineno}: expected 3 fields, got {line!r}")
        s, t, w = fields
        if s not in truth.src_id or t not in truth.trg_id:
            raise CheckError(f"dictionary line {lineno}: unknown word in {line!r}")
        if (s, t) in pairs:
            raise CheckError(f"dictionary line {lineno}: repeated pair {s} {t}")
        pairs.add((s, t))
        if not float(w) >= 0.0:
            problems.append(f"line {lineno}: weight {w} < 0")
        src_deg[s] = src_deg.get(s, 0) + 1
        trg_deg[t] = trg_deg.get(t, 0) + 1
        if trg_deg[t] > trg_cap:
            problems.append(f"target {t} has degree {trg_deg[t]} > {trg_cap}")
        if src_cap is not None and src_deg[s] > src_cap:
            problems.append(f"source {s} has degree {src_deg[s]} > {src_cap}")
    if problems:
        raise CheckError(f"prior {prior} dictionary: " + "; ".join(problems[:5]))
    if not pairs:
        raise CheckError("empty dictionary")
    return len(pairs)


def check_report(text: str) -> dict:
    """The run report lists its iterations and positive timings."""
    report = json.loads(text)
    iterations = report["result"]["iterations"]
    if not (iterations >= 1 and len(report["trace"]) == iterations):
        raise CheckError(f"report lists {iterations} iterations, trace {len(report['trace'])}")
    timings = report["timings"]
    for key in ("load_s", "train_s"):
        if not timings[key] > 0.0:
            raise CheckError(f"report timing {key} = {timings[key]}")
    return report


def _top1(cos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best target per row (lowest id among equals) and whether the row is a near-tie."""
    best = np.argmax(cos, axis=1)
    two = -np.partition(-cos, 1, axis=1)[:, :2]
    return best, (two[:, 0] - two[:, 1]) < TIE_EPS


def precision(omega: np.ndarray, truth: Truth) -> tuple[int, int]:
    """Gold hits of the map by brute-force cosine top-1, and near-tie rows."""
    hits, ties = 0, 0
    step = truth.block_rows()
    for lo in range(0, truth.gold_src.size, step):
        src = truth.gold_src[lo:lo + step]
        best, tie = _top1(truth.cosines(omega, src))
        hits += int(np.count_nonzero(best == truth.perm[src]))
        ties += int(np.count_nonzero(tie))
    return hits, ties


def check_evaluate(stdout: str, omega: np.ndarray, truth: Truth, floor_share: float
                   ) -> tuple[float, float]:
    """P@1 equals the brute-force count and reaches the planted map's floor.

    Returns the P@1 and that of the planted rotation itself.
    """
    payload = json.loads(stdout)
    p1, coverage = payload["p_at_1"], payload["coverage"]
    if coverage != 1.0:
        raise CheckError(f"coverage {coverage} != 1 on an all-in-vocabulary gold file")
    n = truth.gold_src.size
    hits, ties = precision(omega, truth)
    if abs(p1 * n - hits) > ties + 1e-6:
        raise CheckError(f"P@1 {p1} != brute force {hits}/{n} ({ties} near-ties)")
    planted_hits, _ = precision(truth.R, truth)
    if not hits >= floor_share * planted_hits:
        raise CheckError(
            f"P@1 {hits}/{n} below {floor_share} of the planted rotation's {planted_hits}/{n}"
        )
    return p1, planted_hits / n


def hubness_counts(omega: np.ndarray, truth: Truth, queries: np.ndarray, k: int
                   ) -> tuple[np.ndarray, int]:
    """N_k per target by brute force, ties to the lower id; and near-tie rows."""
    n_trg = truth.T.shape[1]
    counts = np.zeros(n_trg, dtype=np.int64)
    ties = 0
    step = truth.block_rows()
    for lo in range(0, queries.size, step):
        cos = truth.cosines(omega, queries[lo:lo + step])
        top = np.argpartition(-cos, k, axis=1)[:, : k + 1]
        vals = np.take_along_axis(cos, top, axis=1)
        order = np.lexsort((top, -vals), axis=1)
        top = np.take_along_axis(top, order, axis=1)
        vals = np.take_along_axis(vals, order, axis=1)
        ties += int(np.count_nonzero(vals[:, k - 1] - vals[:, k] < TIE_EPS))
        # an exact tie at the boundary that extends past k+1 needs the whole row
        for r in np.flatnonzero(vals[:, k - 1] == vals[:, k]):
            row = cos[r]
            top[r, :k] = np.lexsort((np.arange(n_trg), -row))[:k]
        counts += np.bincount(top[:, :k].ravel(), minlength=n_trg)
    return counts, ties


def check_hubness(text: str, omega: np.ndarray, truth: Truth, k: int) -> int:
    """N_k lines cover every target once, sum to k * queries and match a recount."""
    counts = np.full(len(truth.trg_words), -1, dtype=np.int64)
    prev: tuple[int, int] | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        word, _, c = line.partition("\t")
        i = truth.trg_id.get(word)
        if i is None or counts[i] >= 0:
            raise CheckError(f"hubness line {lineno}: unknown or repeated target {word!r}")
        counts[i] = int(c)
        if prev is not None and (-prev[0], prev[1]) > (-counts[i], i):
            raise CheckError(f"hubness line {lineno}: not sorted by count, then id")
        prev = (int(counts[i]), i)
    if np.any(counts < 0):
        raise CheckError(f"hubness output misses {int(np.sum(counts < 0))} targets")
    queries = np.unique(truth.gold_src)
    if counts.sum() != k * queries.size:
        raise CheckError(f"sum N_{k} = {counts.sum()} != {k} * {queries.size}")
    expect, ties = hubness_counts(omega, truth, queries, k)
    diff = int(np.abs(counts - expect).sum())
    if diff > 2 * ties:
        raise CheckError(f"N_{k} differs from the recount in {diff} counts ({ties} near-ties)")
    return int(counts.max())


def check_query(stdout: str, omega: np.ndarray, truth: Truth, topn: int) -> None:
    """Each word gets OOV or its top-n targets, cosines true to the printed digits."""
    lines = stdout.splitlines()
    known = [truth.src_id[w] for w in truth.queries if w in truth.src_id]
    all_cos = dict(zip(known, truth.cosines(omega, np.array(known, dtype=np.int64))))
    pos = 0
    for word in truth.queries:
        j = truth.src_id.get(word)
        if j is None:
            if pos >= len(lines) or lines[pos] != f"{word}\tOOV":
                raise CheckError(f"query: expected an OOV line for {word!r}")
            pos += 1
            continue
        cos = all_cos[j]
        best = np.lexsort((np.arange(cos.size), -cos))[:topn]
        got = lines[pos:pos + topn]
        pos += topn
        if len(got) != topn:
            raise CheckError(f"query: {len(got)} lines for {word!r}, expected {topn}")
        seen = set()
        for r, line in enumerate(got):
            fields = line.split("\t")
            if len(fields) != 3 or fields[0] != word or fields[1] not in truth.trg_id:
                raise CheckError(f"query: malformed line {line!r}")
            i = truth.trg_id[fields[1]]
            if i in seen:
                raise CheckError(f"query: {fields[1]} listed twice for {word!r}")
            seen.add(i)
            if abs(float(fields[2]) - cos[i]) > 5e-7 + TIE_EPS:
                raise CheckError(f"query: cosine {fields[2]} for {word!r}->{fields[1]}, "
                                 f"recomputed {cos[i]:.9f}")
            if cos[i] < cos[best[r]] - TIE_EPS:
                raise CheckError(f"query: rank {r + 1} of {word!r} is {fields[1]}, "
                                 f"expected {truth.trg_words[best[r]]}")
    if pos != len(lines):
        raise CheckError(f"query: {len(lines) - pos} unexpected trailing lines")
