"""factbeam: constrained beam decoding and evaluation for catalog-grounded
triplet extraction.

The pieces compose left to right: a Catalog of entity and relation
names, prefix TokenTries over their tokenizations, a grammar- and
trie-constrained beam decoder over any Scorer, and an evaluation suite
(micro/macro scores, occurrence buckets, bootstrap intervals, and
NER/NEL/RC error attribution).

The names below are the surface the README documents; everything else
is imported from its module (`factbeam.metrics.micro_scores`, say).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .attribution import match, nel_rc_errors
from .catalog import Catalog, TokenTrie, build_catalog, build_trie
from .decoder import DecodeConfig, InvalidScores, Scorer, decode
from .fileio import load_catalog, load_trie, read_documents, read_prediction_sets, save_trie
from .linearize import Triplet, linearize, order_triplets, parse
from .metrics import PRF, EvalPair, bootstrap_ci, score_report
from .scorers import NGramScorer, RandomScorer, train_ngram
from .tokens import GRAMMAR, ByteTokenizer, Tokenizer

__all__ = [
    "match", "nel_rc_errors",
    "Catalog", "TokenTrie", "build_catalog", "build_trie",
    "DecodeConfig", "InvalidScores", "Scorer", "decode",
    "load_catalog", "load_trie", "read_documents", "read_prediction_sets", "save_trie",
    "Triplet", "linearize", "order_triplets", "parse",
    "PRF", "EvalPair", "bootstrap_ci", "score_report",
    "NGramScorer", "RandomScorer", "train_ngram",
    "GRAMMAR", "ByteTokenizer", "Tokenizer",
]
