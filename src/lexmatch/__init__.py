"""Bilingual dictionary induction from monolingual embeddings via latent matching."""

from lexmatch.embeddings import (
    EmbeddingMatrix,
    Lexicon,
    load_embeddings,
    normalize_pair,
    save_embeddings,
)
from lexmatch.candidates import CandidateGraph, build_candidates, edge_weight
from lexmatch.assignment import Matching, solve_sparse_lap
from lexmatch.em import (
    EmCollapseError,
    EmConfig,
    EmTrace,
    Model,
    ModelParams,
    TrainedSide,
    centroid,
    e_step_matching,
    e_step_one_to_many,
    load_model,
    m_step,
    procrustes,
    run_em,
    save_model,
)
from lexmatch.seeds import SeedDictionary, seed_from_tsv, seed_identical, seed_numerals
from lexmatch.evaluation import (
    HubnessReport,
    hubness,
    load_eval_dictionary,
    precision_at_1,
    word_similarity,
)

__version__ = "0.1.0"
