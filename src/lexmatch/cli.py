"""Command-line front end: induce, evaluate, hubness, query."""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time

from lexmatch.em import (
    EmConfig,
    PRIOR_ONE_TO_MANY,
    PRIOR_ONE_TO_ONE,
    PRIOR_ONE_TO_TWO,
    PRIOR_TWO_TO_TWO,
    load_model,
    run_em,
    save_model,
)
from lexmatch.embeddings import (
    NORMALIZATION_SCHEMES,
    NORM_UNIT,
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

    p = sub.add_parser("evaluate", help="score a trained model against gold data")
    p.add_argument("--model", required=True)
    p.add_argument("--src-emb", required=True)
    p.add_argument("--trg-emb", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eval-dict", help="gold dictionary TSV for P@1")
    group.add_argument("--wordsim", help="src<TAB>trg<TAB>score triples for Spearman")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("hubness", help="neighborhood occupancy counts N_k per target word")
    p.add_argument("--model", required=True)
    p.add_argument("--src-emb", required=True)
    p.add_argument("--trg-emb", required=True)
    p.add_argument("--queries", required=True,
                   help="dictionary TSV whose in-vocabulary source words form the query set")
    p.add_argument("--k", type=_positive_int, default=20)
    p.add_argument("--out", default=None, help="output TSV (default: stdout)")
    p.set_defaults(func=cmd_hubness)

    p = sub.add_parser("query", help="print nearest target words for source words")
    p.add_argument("--model", required=True)
    p.add_argument("--src-emb", required=True)
    p.add_argument("--trg-emb", required=True)
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
    lex_src, S = load_embeddings(args.src_emb, max_vocab=args.vocab_size)
    lex_trg, T = load_embeddings(args.trg_emb, max_vocab=args.vocab_size)
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
        save_model(args.model_out, params, args.normalize)

    t_end = time.perf_counter()
    report = {
        "format_version": 1,
        "inputs": {
            "src_emb": args.src_emb,
            "trg_emb": args.trg_emb,
            "seed": args.seed,
            "vocab_size": args.vocab_size,
        },
        "config": {
            "k": config.k,
            "rank_restrict": list(config.rank_restrict) if config.rank_restrict else None,
            "convergence_eps": config.convergence_eps,
            "max_iters": config.max_iters,
            "prior": config.prior,
            "normalization": args.normalize,
            "min_iters": config.min_iters,
            "update_mu": config.update_mu,
            "pin_seed": config.pin_seed,
            "threads": config.threads,
        },
        "seed_dictionary": {
            "provenance": seed.provenance,
            "pairs": len(seed),
            "requested": seed.n_requested,
            "coverage": seed.coverage,
        },
        "result": {
            "iterations": len(trace),
            "converged": trace.converged,
            "induced_pairs": len(rows),
            "total_weight": float(result.total_weight),
            "final_mean_cosine": trace.records[-1].mean_cosine if trace.records else None,
        },
        "trace": [
            {
                "iteration": r.iteration,
                "matched": r.matched,
                "total_weight": r.total_weight,
                "mean_cosine": r.mean_cosine,
            }
            for r in trace.records
        ],
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
    params, scheme = load_model(args.model)
    lex_src, S = load_embeddings(args.src_emb)
    lex_trg, T = load_embeddings(args.trg_emb)
    lex_src, S = normalize_pair(lex_src, S, scheme, drop_zero=True)
    lex_trg, T = normalize_pair(lex_trg, T, scheme, drop_zero=True)
    if S.dim != params.dim:
        raise ValueError(
            f"model dimension {params.dim} does not match embeddings ({S.dim})"
        )
    return params, lex_src, S, lex_trg, T


def cmd_evaluate(args) -> int:
    params, lex_src, S, lex_trg, T = _load_model_and_embeddings(args)
    if args.eval_dict:
        gold = load_eval_dictionary(args.eval_dict)
        score, coverage = precision_at_1(params, S, T, gold, lex_src, lex_trg)
        payload = {"p_at_1": score, "coverage": coverage}
    else:
        triples = load_wordsim_tsv(args.wordsim)
        rho, coverage = word_similarity(params, S, T, triples, lex_src, lex_trg)
        payload = {"spearman": rho, "coverage": coverage}
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key in payload:
            print(f"{key}\t{payload[key]:.6f}")
    return 0


def cmd_hubness(args) -> int:
    params, lex_src, S, lex_trg, T = _load_model_and_embeddings(args)
    gold = load_eval_dictionary(args.queries)
    queries = sorted(lex_src.id(w) for w in gold if w in lex_src)
    if not queries:
        raise ValueError("no in-vocabulary query words in the dictionary file")
    report = hubness(params, S, T, queries, args.k)
    lines = [
        f"{lex_trg.word(i)}\t{count}\n" for i, count in report.sorted_entries()
    ]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    return 0


def cmd_query(args) -> int:
    params, lex_src, S, lex_trg, T = _load_model_and_embeddings(args)
    words: list[str] = list(args.word or [])
    if args.stdin:
        words.extend(line.strip() for line in sys.stdin if line.strip())
    if not words:
        raise ValueError("no query words given (use --word or --stdin)")
    known = [lex_src.id(w) for w in words if w in lex_src]
    neighbors = iter(topn_neighbors(params, S, T, known, args.topn))
    for w in words:
        if w not in lex_src:
            print(f"{w}\tOOV")
            continue
        for i, cos in next(neighbors):
            print(f"{w}\t{lex_trg.word(i)}\t{cos:.6f}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING if getattr(args, "quiet", False) else logging.INFO
    logging.basicConfig(level=level, format="%(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
