"""factbeam: constrained beam decoding and evaluation for catalog-grounded
triplet extraction.

The pieces compose left to right: a Catalog of entity and relation
names, prefix TokenTries over their tokenizations, a grammar- and
trie-constrained beam decoder over any Scorer, and an evaluation suite
(micro/macro scores, occurrence buckets, bootstrap intervals, and
NER/NEL/RC error attribution).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .attribution import (
    MatchEdge,
    MissingSpans,
    edge_weight,
    match,
    nel_rc_errors,
    ner_error,
    recall_error,
)
from .catalog import (
    Catalog,
    CatalogError,
    DuplicateName,
    EmptyName,
    InvalidPrefix,
    TokenTrie,
    build_catalog,
    build_trie,
    names_digest,
)
from .decoder import (
    DecodeConfig,
    Hypothesis,
    InvalidScores,
    InvalidSequence,
    NoCompleteHypothesis,
    Scorer,
    allowed_tokens,
    beam_search,
    decode,
)
from .fileio import (
    Document,
    TrieFormatError,
    load_catalog,
    load_trie,
    read_counts,
    read_documents,
    read_jsonl,
    read_mentions,
    read_prediction_sets,
    save_trie,
    sha256_file,
    triplet_from_json,
    triplet_to_json,
    write_catalog_rows,
    write_counts,
    write_json,
    write_jsonl,
)
from .linearize import (
    Diagnostic,
    MentionedTriplet,
    ParseResult,
    Triplet,
    UnknownId,
    linearize,
    order_triplets,
    parse,
)
from .metrics import (
    EvalPair,
    PRF,
    RelationScore,
    ScoreReport,
    bootstrap_ci,
    bucket_relations,
    bucketed_f1,
    f1_score,
    macro_scores,
    micro_scores,
    per_relation_scores,
    score_report,
)
from .scorers import (
    NGramScorer,
    OracleScorer,
    RandomScorer,
    TableScorer,
    UniformScorer,
    train_ngram,
)
from .tokens import EOS, ET, GRAMMAR, NUM_SPECIAL, OBJ, REL, SUB, ByteTokenizer, Tokenizer

__all__ = [
    "__version__",
    # tokens
    "SUB", "REL", "OBJ", "ET", "EOS", "GRAMMAR", "NUM_SPECIAL", "ByteTokenizer", "Tokenizer",
    # catalog
    "Catalog", "CatalogError", "DuplicateName", "EmptyName", "InvalidPrefix",
    "TokenTrie", "build_catalog", "build_trie", "names_digest",
    # linearize
    "Triplet", "MentionedTriplet", "Diagnostic", "ParseResult", "UnknownId",
    "linearize", "order_triplets", "parse",
    # decoder
    "Scorer", "Hypothesis", "DecodeConfig", "InvalidScores", "InvalidSequence",
    "NoCompleteHypothesis", "allowed_tokens", "beam_search", "decode",
    # scorers
    "UniformScorer", "OracleScorer", "TableScorer", "RandomScorer", "NGramScorer",
    "train_ngram",
    # metrics
    "EvalPair", "PRF", "RelationScore", "ScoreReport", "micro_scores", "macro_scores",
    "per_relation_scores", "score_report", "bucket_relations", "bucketed_f1",
    "bootstrap_ci", "f1_score",
    # attribution
    "MatchEdge", "MissingSpans", "edge_weight", "match",
    "nel_rc_errors", "ner_error", "recall_error",
    # fileio
    "Document", "TrieFormatError", "load_catalog", "load_trie",
    "read_counts", "read_documents", "read_jsonl",
    "read_mentions", "read_prediction_sets", "save_trie", "sha256_file",
    "triplet_from_json", "triplet_to_json", "write_catalog_rows",
    "write_counts", "write_json", "write_jsonl",
]
