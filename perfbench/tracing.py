"""Spans around the calls into each lexmatch layer, from outside the program.

Tracer.install() replaces each public function at the name through which
the program calls it (lexmatch.cli.load_embeddings, lexmatch.em.build_candidates,
...) with a wrapper that records a span: name, start, end, parent span and a
few counts taken from the arguments and the result.  uninstall() puts the
originals back.  Spans stay in memory; layer_metrics() turns one round's
spans into the per-layer metrics, self time being a span's duration minus
that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np


def _rows(args, kwargs, result) -> dict:
    return {"rows": result[1].n_words}


def _candidates(args, kwargs, result) -> dict:
    S, T = args[0], args[1]
    restrict = kwargs.get("restrict")
    ns, nt = restrict if restrict is not None else (S.n_words, T.n_words)
    return {"pairs": ns * nt, "edges": result.n_edges}


def _solve(args, kwargs, result) -> dict:
    g = args[0]
    return {"rows": g.n_src,
            "rows_with_edges": int(np.count_nonzero(np.diff(g.indptr))),
            "matched": len(result)}


def _queries(index: int):
    def attrs(args, kwargs, result) -> dict:
        return {"queries": len(args[index])}
    return attrs


# (module, attribute, span name, counts taken from the call)
WRAPPED = (
    ("lexmatch.cli", "load_embeddings", "embeddings.load", _rows),
    ("lexmatch.cli", "normalize_pair", "embeddings.normalize", None),
    ("lexmatch.cli", "seed_numerals", "seeds.build", None),
    ("lexmatch.cli", "seed_identical", "seeds.build", None),
    ("lexmatch.cli", "seed_from_tsv", "seeds.build", None),
    ("lexmatch.cli", "run_em", "em.run", None),
    ("lexmatch.cli", "precision_at_1", "evaluation.precision_at_1", None),
    ("lexmatch.cli", "hubness", "evaluation.hubness", _queries(3)),
    ("lexmatch.cli", "topn_neighbors", "evaluation.topn_neighbors", None),
    ("lexmatch.em", "build_candidates", "candidates.build", _candidates),
    ("lexmatch.em", "solve_sparse_lap", "assignment.solve", _solve),
    ("lexmatch.em", "duplicate_and_merge", "em.expand", None),
    ("lexmatch.em", "e_step_one_to_many", "em.one_to_many", None),
    ("lexmatch.em", "m_step", "em.m_step", None),
    ("lexmatch.evaluation", "translate_batch", "evaluation.translate", _queries(3)),
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, sid: int, parent: int | None, name: str):
        self.id, self.parent, self.name = sid, parent, name
        self.start = self.end = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, **self.attrs}


class Tracer:
    """Records nested spans; only the calling thread is traced."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, name)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def traced(self, fn, name: str, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            if name == "em.expand":
                # the merge step runs later, inside the E-step: trace it too
                expanded, merge = result
                return expanded, self.traced(merge, "em.merge")
            return result
        return wrapper

    def install(self) -> None:
        for mod_name, attr, name, attrs in WRAPPED:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.traced(fn, name, attrs))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)


def _total(spans, name, key=None) -> float:
    return sum(s.attrs[key] if key else s.duration for s in spans if s.name == name)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one round; a layer the round never called reads 0."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def self_time(prefix: str) -> float:
        return sum(s.duration - child_time.get(s.id, 0.0)
                   for s in spans if s.name.startswith(prefix))

    load_s = _total(spans, "embeddings.load")
    build_s = _total(spans, "candidates.build")
    solve_s = _total(spans, "assignment.solve")
    rows = _total(spans, "assignment.solve", "rows")
    rows_with_edges = _total(spans, "assignment.solve", "rows_with_edges")
    translate_s = _total(spans, "evaluation.translate")
    hubness_s = _total(spans, "evaluation.hubness")
    query_s = _total(spans, "evaluation.topn_neighbors")
    m = {
        "embeddings.load_s": load_s,
        "embeddings.load_rows_per_s": _rate(_total(spans, "embeddings.load", "rows"), load_s),
        "embeddings.normalize_s": _total(spans, "embeddings.normalize"),
        "seeds.build_s": _total(spans, "seeds.build"),
        "candidates.build_s": build_s,
        "candidates.pairs_scored_per_s": _rate(_total(spans, "candidates.build", "pairs"),
                                               build_s),
        "candidates.edges_kept": _total(spans, "candidates.build", "edges"),
        "assignment.solve_s": solve_s,
        "assignment.rows": rows,
        "assignment.rows_with_edges": rows_with_edges,
        "assignment.useful_row_ratio": _rate(rows_with_edges, rows),
        "assignment.matched": _total(spans, "assignment.solve", "matched"),
        "em.expand_merge_s": _total(spans, "em.expand") + _total(spans, "em.merge"),
        "em.one_to_many_s": _total(spans, "em.one_to_many"),
        "em.m_step_s": _total(spans, "em.m_step"),
        "em.self_s": self_time("em.run"),
        "em.iterations": float(sum(1 for s in spans if s.name == "em.m_step")),
        "evaluation.translate_s": translate_s,
        "evaluation.translate_qps": _rate(_total(spans, "evaluation.translate", "queries"),
                                          translate_s),
        "evaluation.hubness_s": hubness_s,
        "evaluation.hubness_qps": _rate(_total(spans, "evaluation.hubness", "queries"),
                                        hubness_s),
        "evaluation.query_s": query_s,
        "evaluation.query_words_per_s": _rate(
            sum(1 for s in spans if s.name == "evaluation.topn_neighbors"), query_s),
        "cli.self_s": self_time("cli."),
    }
    for cmd in ("induce", "evaluate", "hubness", "query"):
        m[f"cli.{cmd}_self_s"] = self_time(f"cli.{cmd}")
    return m


# name -> unit of every metric layer_metrics() returns, plus the two that
# compare a traced round with an untraced one
LAYER_UNITS = {
    "embeddings.load_s": "s",
    "embeddings.load_rows_per_s": "rows/s",
    "embeddings.normalize_s": "s",
    "seeds.build_s": "s",
    "candidates.build_s": "s",
    "candidates.pairs_scored_per_s": "pairs/s",
    "candidates.edges_kept": "count",
    "assignment.solve_s": "s",
    "assignment.rows": "count",
    "assignment.rows_with_edges": "count",
    "assignment.useful_row_ratio": "ratio",
    "assignment.matched": "count",
    "em.expand_merge_s": "s",
    "em.one_to_many_s": "s",
    "em.m_step_s": "s",
    "em.self_s": "s",
    "em.iterations": "count",
    "evaluation.translate_s": "s",
    "evaluation.translate_qps": "queries/s",
    "evaluation.hubness_s": "s",
    "evaluation.hubness_qps": "queries/s",
    "evaluation.query_s": "s",
    "evaluation.query_words_per_s": "words/s",
    "cli.self_s": "s",
    "cli.induce_self_s": "s",
    "cli.evaluate_self_s": "s",
    "cli.hubness_self_s": "s",
    "cli.query_self_s": "s",
    "trace.overhead_s": "s",
    "trace.train_gap_s": "s",
}
