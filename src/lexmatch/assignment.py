"""Maximum-weight bipartite matching under the priors' degree caps.

solve_sparse_lap is the one solver: successive shortest augmenting paths
with dual potentials (Dijkstra on the sparse adjacency).  Every source slot
also owns a private zero-cost "stay unmatched" column, so the matching is
partial, and maximization is turned into minimization by negating weights.
The tests check it against a dense Hungarian oracle and exhaustive
enumeration, kept in tests/oracles.py.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from lexmatch.candidates import CandidateGraph


@dataclass(eq=False)
class Matching:
    """Pair set between targets and sources; the result of every E-step.

    trg, src and weight are parallel arrays, sorted here by (target,
    source).  total_weight is math.fsum over the weights, so equal pair
    sets always report bit-equal totals.  Each prior bounds vertex degrees
    differently; assert_degrees makes the bound in force explicit.
    """

    n_trg: int
    n_src: int
    trg: np.ndarray
    src: np.ndarray
    weight: np.ndarray
    total_weight: float = field(init=False)

    def __post_init__(self) -> None:
        trg = np.asarray(self.trg, dtype=np.int64)
        src = np.asarray(self.src, dtype=np.int64)
        weight = np.asarray(self.weight, dtype=np.float64)
        if trg.ndim != 1 or trg.shape != src.shape or trg.shape != weight.shape:
            raise ValueError(
                f"pair arrays differ in shape: {trg.shape}, {src.shape}, {weight.shape}"
            )
        order = np.lexsort((src, trg))
        self.trg, self.src, self.weight = trg[order], src[order], weight[order]
        self.total_weight = math.fsum(self.weight.tolist())

    def __len__(self) -> int:
        return self.trg.size

    def assert_degrees(self, trg_cap: int | None = 1, src_cap: int | None = 1) -> None:
        """Raise ValueError for an id out of range or a vertex over its cap.

        A cap of None leaves that side's degrees unbounded.
        """
        for side, ids, n, cap in (
            ("target", self.trg, self.n_trg, trg_cap),
            ("source", self.src, self.n_src, src_cap),
        ):
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise ValueError(f"{side} id out of range [0, {n})")
            if cap is not None:
                over = np.flatnonzero(np.bincount(ids, minlength=n) > cap)
                if over.size:
                    raise ValueError(f"{side} {over[0]} exceeds degree cap {cap}")

    def unmatched_targets(self) -> np.ndarray:
        mask = np.ones(self.n_trg, dtype=bool)
        mask[self.trg] = False
        return np.flatnonzero(mask)


def solve_sparse_lap(g: CandidateGraph, trg_cap: int = 1, src_cap: int = 1) -> Matching:
    """Maximum-weight pair set on a sparse candidate graph under degree caps.

    Each target takes at most trg_cap sources and each source at most
    src_cap (1 or 2) targets, over distinct edges: the 1:1, 1:2 and 2:2
    priors.  Source j has src_cap slots j + s * ns, searched slot 0 of every
    source in source order, then slot 1.  Each slot holds one column, a
    target or its own zero-cost "stay unmatched" column nt + r, and a target
    seats up to trg_cap slots.  Successive shortest augmenting paths
    (Dijkstra over columns, weights negated into costs) keep potentials under
    which every held edge is tight and every relaxed edge has a nonnegative
    reduced cost; a column is left only through the slots it seats, and a
    slot is reached only through its one column.  Heap keys are (distance,
    column), so ties go to lower ids and runs are bit-for-bit reproducible.
    Under 1:2 these are the order and ids of em.duplicate_and_merge's source
    copies, whose merged solve this reproduces byte for byte.

    When both caps exceed 1, a slot's cost to the target its sibling holds is
    +inf, so no edge is taken twice; an edge this releases keeps a nonnegative
    reduced cost, since the sibling's next column was as close via the slot.

    Most searches end at the first pop, the smallest (distance, column) key
    of the slot's own distinct columns: when that column has a free seat the
    slot takes it without a heap, as a full search would.
    """
    g.check_no_duplicates()
    if g.n_edges and g.weights.min() < 0:
        raise ValueError("negative edge weight; prune candidates first")
    if trg_cap < 1 or src_cap not in (1, 2):
        raise ValueError(f"unsupported degree caps ({trg_cap}, {src_cap})")

    ns, nt, tc = g.n_src, g.n_trg, trg_cap
    n_rows = src_cap * ns
    n_cols = nt + n_rows  # col nt + r is the dummy column of slot r
    bounds = g.indptr.tolist()
    all_targets = g.targets.tolist()
    all_costs = (-g.weights).tolist()
    # a slot without edges can only take its own dummy column, which no
    # other slot reaches, so it is never searched nor expanded
    sources = np.flatnonzero(np.diff(g.indptr)).tolist()
    slots = [j + s * ns for s in range(src_cap) for j in sources]
    row_cols: list[list[int]] = [[]] * n_rows
    row_costs: list[list[float]] = [[]] * n_rows
    for r in slots:  # each row ends with its dummy column at cost 0
        lo, hi = bounds[r % ns], bounds[r % ns + 1]
        row_cols[r] = all_targets[lo:hi] + [nt + r]
        row_costs[r] = all_costs[lo:hi] + [0.0]

    v = [0.0] * n_cols
    u = [0.0] * n_rows
    seats = [-1] * (n_cols * tc)  # col's slots, filled in order from col * tc
    seat_of = [-1] * n_rows  # slot r sits in column seat_of[r] // tc
    blocked = tc > 1 and src_cap > 1  # sibling slots may not share a target
    # per-search state, back to these values once each search ends
    best = [math.inf] * n_cols
    done = [False] * n_cols
    pred = [-1] * n_cols  # read only along the path just searched

    for j0 in slots:
        u0 = min([c - v[i] for i, c in zip(row_cols[j0], row_costs[j0])])
        heap = [(c - u0 - v[i], i) for i, c in zip(row_cols[j0], row_costs[j0])]
        d, col = min(heap)
        if seats[col * tc + tc - 1] == -1:
            u[j0] = u0 + d
            if blocked and col < nt:
                row_costs[j0 - ns][row_cols[j0].index(col)] = math.inf
            seat_of[j0] = seats.index(-1, col * tc)
            seats[seat_of[j0]] = j0
            continue

        heapq.heapify(heap)
        for d, col in heap:
            best[col] = d
            pred[col] = j0
        final: list[tuple[int, float]] = []
        while True:  # j0's own dummy column is free, so an exit is always found
            d, col = heapq.heappop(heap)
            if done[col]:
                continue
            done[col] = True
            seat = col * tc
            if seats[seat + tc - 1] == -1:
                break
            final.append((col, d))
            for r1 in seats[seat:seat + tc]:
                ur1 = u[r1]
                for i, c in zip(row_cols[r1], row_costs[r1]):
                    if not done[i]:
                        di = d + c - ur1 - v[i]
                        if di < best[i]:
                            best[i] = di
                            pred[i] = r1
                            heapq.heappush(heap, (di, i))

        # every column given a distance is final, the exit or still on the heap
        for _, i in heap:
            best[i] = math.inf
        best[col] = math.inf
        done[col] = False
        for i, di in final:
            v[i] += di - d
            best[i] = math.inf
            done[i] = False
            for r1 in seats[i * tc:i * tc + tc]:
                u[r1] += d - di
        u[j0] = u0 + d

        # from a free seat of the exit back to j0, each slot takes the seat the next leaves
        seat = seats.index(-1, col * tc)
        while seat != -1:
            r = pred[seat // tc]
            if blocked:  # unblock r's old target for its sibling r - ns, block its new one
                for i, c in ((seat_of[r] // tc, None), (seat // tc, math.inf)):
                    if 0 <= i < nt:
                        k = row_cols[r].index(i)
                        row_costs[r - ns][k] = row_costs[r][k] if c is None else c
            seats[seat] = r
            seat, seat_of[r] = seat_of[r], seat

    # each held column of a source is one of its edges
    edge_src = np.repeat(np.arange(ns), np.diff(g.indptr))
    held = (np.array(seat_of, dtype=np.int64) // tc).reshape(src_cap, ns)[:, edge_src]
    chosen = (g.targets == held).any(axis=0)
    m = Matching(nt, ns, g.targets[chosen], edge_src[chosen], g.weights[chosen])
    m.assert_degrees(trg_cap, src_cap)
    return m
