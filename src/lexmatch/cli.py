"""Command-line front end: induce, evaluate, hubness, query."""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import hashlib
import json
import logging
import os
import sys
import time

import numpy as np

from lexmatch.em import (
    EmConfig,
    PRIOR_ONE_TO_MANY,
    PRIOR_ONE_TO_ONE,
    PRIOR_ONE_TO_TWO,
    PRIOR_TWO_TO_TWO,
    Model,
    TrainedSide,
    load_model,
    run_em,
    save_model,
)
from lexmatch.embeddings import (
    NORMALIZATION_SCHEMES,
    NORM_UNIT,
    file_sha256,
    load_embeddings,
    normalize_pair,
)
from lexmatch.evaluation import (
    hubness,
    load_eval_dictionary,
    load_wordsim_tsv,
    precision_at_1,
    topn_neighbors,
    word_similarity,
)
from lexmatch.seeds import seed_from_tsv, seed_identical, seed_numerals

_PRIOR_FLAG = {
    "1:1": PRIOR_ONE_TO_ONE,
    "1:2": PRIOR_ONE_TO_TWO,
    "2:2": PRIOR_TWO_TO_TWO,
    "1:many": PRIOR_ONE_TO_MANY,
}


def _seed_spec(value: str) -> str:
    if value in ("numerals", "identical") or value.startswith("tsv:"):
        return value
    raise argparse.ArgumentTypeError(
        f"seed must be 'numerals', 'identical' or 'tsv:PATH', got {value!r}"
    )


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexmatch",
        description="Induce and evaluate bilingual dictionaries from monolingual embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the trained model and the two files it is evaluated on
    model_sides = argparse.ArgumentParser(add_help=False)
    model_sides.add_argument("--model", required=True)
    model_sides.add_argument("--src-emb", required=True)
    model_sides.add_argument("--trg-emb", required=True)

    p = sub.add_parser("induce", help="train a mapping and write the induced dictionary")
    p.add_argument("--src-emb", required=True, help="source embeddings, word2vec text format")
    p.add_argument("--trg-emb", required=True, help="target embeddings, word2vec text format")
    p.add_argument("--seed", required=True, type=_seed_spec,
                   help="seed dictionary: tsv:PATH, numerals, or identical")
    p.add_argument("--prior", choices=sorted(_PRIOR_FLAG), default="1:1")
    p.add_argument("--k", type=_positive_int, default=3,
                   help="candidate targets kept per source (default 3)")
    p.add_argument("--rank-restrict", type=_positive_int, default=None, metavar="N",
                   help="restrict matching to the top-N words per side")
    p.add_argument("--vocab-size", type=_positive_int, default=None,
                   help="load only the most frequent N words per language")
    p.add_argument("--normalize", choices=NORMALIZATION_SCHEMES, default=NORM_UNIT)
    p.add_argument("--out-dict", required=True, help="output dictionary TSV path")
    p.add_argument("--report", default=None,
                   help="run report JSON path (default: OUT_DICT.report.json)")
    p.add_argument("--model-out", default=None, help="save trained model to this path")
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--eps", type=float, default=1e-6, help="mean-cosine convergence threshold")
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--pin-seed", action="store_true",
                   help="force seed pairs into every E-step result")
    p.add_argument("--drop-zero", action="store_true",
                   help="drop zero-norm vectors instead of failing normalization")
    p.add_argument("--quiet", action="store_true", help="suppress per-iteration log lines")
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("evaluate", parents=[model_sides],
                       help="score a trained model against gold data")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eval-dict", help="gold dictionary TSV for P@1")
    group.add_argument("--wordsim", help="src<TAB>trg<TAB>score triples for Spearman")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("hubness", parents=[model_sides],
                       help="neighborhood occupancy counts N_k per target word")
    p.add_argument("--queries", required=True,
                   help="dictionary TSV whose in-vocabulary source words form the query set")
    p.add_argument("--k", type=_positive_int, default=20)
    p.add_argument("--out", default=None, help="output TSV (default: stdout)")
    p.set_defaults(func=cmd_hubness)

    p = sub.add_parser("query", parents=[model_sides],
                       help="print nearest target words for source words")
    p.add_argument("--word", action="append", default=None,
                   help="source word to query (repeatable)")
    p.add_argument("--stdin", action="store_true", help="read query words from stdin")
    p.add_argument("--topn", type=_positive_int, default=10)
    p.set_defaults(func=cmd_query)

    return parser


def _build_seed(spec: str, lex_src, lex_trg):
    if spec == "numerals":
        return seed_numerals(lex_src, lex_trg)
    if spec == "identical":
        return seed_identical(lex_src, lex_trg)
    return seed_from_tsv(spec[len("tsv:"):], lex_src, lex_trg)


def cmd_induce(args) -> int:
    t_start = time.perf_counter()
    # a model stores the sides only if every row of both files was parsed, so
    # that evaluation on those files may take the sides instead of parsing them
    store = args.model_out and args.vocab_size is None
    src_hash, trg_hash = (hashlib.sha256(), hashlib.sha256()) if store else (None, None)
    lex_src, S = load_embeddings(args.src_emb, max_vocab=args.vocab_size, hasher=src_hash)
    lex_trg, T = load_embeddings(args.trg_emb, max_vocab=args.vocab_size, hasher=trg_hash)
    lex_src, S = normalize_pair(lex_src, S, args.normalize, drop_zero=args.drop_zero)
    lex_trg, T = normalize_pair(lex_trg, T, args.normalize, drop_zero=args.drop_zero)
    seed = _build_seed(args.seed, lex_src, lex_trg)
    t_loaded = time.perf_counter()

    restrict = None
    if args.rank_restrict is not None:
        restrict = (
            min(args.rank_restrict, S.n_words),
            min(args.rank_restrict, T.n_words),
        )
    config = EmConfig(
        k=args.k,
        rank_restrict=restrict,
        convergence_eps=args.eps,
        max_iters=args.max_iters,
        prior=_PRIOR_FLAG[args.prior],
        pin_seed=args.pin_seed,
        threads=args.threads,
    )
    params, result, trace = run_em(S, T, seed, config)
    t_trained = time.perf_counter()

    rows = sorted(zip(result.src.tolist(), result.trg.tolist(), result.weight.tolist()))
    with open(args.out_dict, "w", encoding="utf-8") as fh:
        for j, i, w in rows:
            fh.write(f"{lex_src.word(j)}\t{lex_trg.word(i)}\t{w:.6f}\n")

    if args.model_out:
        model = Model(params, args.normalize, S.center, T.center)
        if store:
            model.src = TrainedSide(src_hash.hexdigest(), lex_src, S)
            model.trg = TrainedSide(trg_hash.hexdigest(), lex_trg, T)
        save_model(args.model_out, model)

    t_end = time.perf_counter()
    report = {
        "format_version": 1,
        "inputs": {
            "src_emb": args.src_emb,
            "trg_emb": args.trg_emb,
            "seed": args.seed,
            "vocab_size": args.vocab_size,
        },
        "config": {**dataclasses.asdict(config), "normalization": args.normalize},
        "seed_dictionary": {
            "provenance": seed.provenance,
            "pairs": len(seed),
            "requested": seed.n_requested,
            "coverage": seed.coverage,
        },
        "result": {
            "iterations": len(trace),
            "converged": trace.converged,
            "stop_reason": trace.stop_reason,
            "induced_pairs": len(rows),
            "total_weight": float(result.total_weight),
            "final_mean_cosine": trace.records[-1].mean_cosine if trace.records else None,
        },
        "trace": [dataclasses.asdict(r) for r in trace.records],
        "timings": {
            "load_s": t_loaded - t_start,
            "train_s": t_trained - t_loaded,
            "write_s": t_end - t_trained,
            "total_s": t_end - t_start,
        },
    }
    report_path = args.report or f"{args.out_dict}.report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _load_model_and_embeddings(args):
    """The model's params and both sides, normalized as training normalized them.

    A side whose file is a regular file with the sha256 that the model
    stored for it is the stored lexicon and matrix, and no text is parsed.
    Any other file is parsed in full and normalized with the model's scheme
    and centring vector.
    """
    model = load_model(args.model)
    sides = []
    for path, stored, center in (
        (args.src_emb, model.src, model.src_center),
        (args.trg_emb, model.trg, model.trg_center),
    ):
        if stored is not None and file_sha256(path) == stored.sha256:
            sides += (stored.lexicon, stored.matrix)
            continue
        lex, matrix = load_embeddings(path)
        if matrix.dim != model.params.dim:
            raise ValueError(
                f"{path}: embedding dimension {matrix.dim} does not match "
                f"the model's {model.params.dim}"
            )
        sides += normalize_pair(lex, matrix, model.normalization, drop_zero=True, center=center)
    return (model.params, *sides)


def cmd_evaluate(args) -> int:
    if args.eval_dict:
        gold = load_eval_dictionary(args.eval_dict)
        params, lex_src, S, lex_trg, T = _load_model_and_embeddings(args)
        score, coverage = precision_at_1(params, S, T, gold, lex_src, lex_trg)
        payload = {"p_at_1": score, "coverage": coverage}
    else:
        triples = load_wordsim_tsv(args.wordsim)
        params, lex_src, S, lex_trg, T = _load_model_and_embeddings(args)
        rho, coverage = word_similarity(params, S, T, triples, lex_src, lex_trg)
        payload = {"spearman": rho, "coverage": coverage}
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key in payload:
            print(f"{key}\t{payload[key]:.6f}")
    return 0


def cmd_hubness(args) -> int:
    gold = load_eval_dictionary(args.queries)
    params, lex_src, S, lex_trg, T = _load_model_and_embeddings(args)
    queries = sorted(lex_src.id(w) for w in gold if w in lex_src)
    if not queries:
        raise ValueError("no in-vocabulary query words in the dictionary file")
    counts = hubness(params, S, T, queries, args.k)
    # descending count; the stable sort keeps equal counts in target id order
    order = np.argsort(-counts, kind="stable")
    lines = [
        f"{lex_trg.word(i)}\t{c}\n" for i, c in zip(order.tolist(), counts[order].tolist())
    ]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    return 0


def cmd_query(args) -> int:
    words: list[str] = list(args.word or [])
    if args.stdin:
        words.extend(line.strip() for line in sys.stdin if line.strip())
    if not words:
        raise ValueError("no query words given (use --word or --stdin)")
    params, lex_src, S, lex_trg, T = _load_model_and_embeddings(args)
    known = [lex_src.id(w) for w in words if w in lex_src]
    neighbors = iter(topn_neighbors(params, S, T, known, args.topn))
    for w in words:
        if w not in lex_src:
            print(f"{w}\tOOV")
            continue
        for i, cos in next(neighbors):
            print(f"{w}\t{lex_trg.word(i)}\t{cos:.6f}")
    return 0


# glibc's mallopt parameter numbers, and the value this process sets for both
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3
_MALLOC_BYTES = 8 << 20


@functools.cache
def _fix_mmap_threshold() -> bool:
    """Fix glibc's mmap threshold and heap top pad at _MALLOC_BYTES for this process.

    By default glibc raises the threshold to the size of each mapped block
    it frees, up to 32 MiB, so whether an embedding-sized array (12 MB at
    5000 x 300) gets its own mapping or a piece of the heap, where it stays
    resident after free, depends on what the process freed before.  The
    commands' peak resident set then moves by tens of MB with allocation
    order alone.  A fixed threshold maps every array of 8 MiB or more on its
    own and unmaps it when freed.  It also stops the heap's trim threshold
    from rising with it, so free memory at the top of the heap would go back
    to the OS past 128 KB and be faulted in again by the next temporary; the
    top pad keeps 8 MiB of it.  Returns False, changing nothing, where
    mallopt is not available.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return (mallopt(_M_MMAP_THRESHOLD, _MALLOC_BYTES) == 1
            and mallopt(_M_TOP_PAD, _MALLOC_BYTES) == 1)


def main(argv=None) -> int:
    _fix_mmap_threshold()
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(message)s", stream=sys.stderr)
    # set on every call: basicConfig does nothing once the root logger has a handler
    quiet = getattr(args, "quiet", False)
    logging.getLogger("lexmatch").setLevel(logging.WARNING if quiet else logging.INFO)
    try:
        rc = args.func(args)
        # write a buffered tail now, so that a closed pipe is reported here
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader is gone: send what stdout still holds to the null device,
        # or the flush at interpreter exit fails again and exits 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
