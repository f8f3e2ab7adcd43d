"""Bi-level constrained beam search over linearized triplet sequences.

Two constraint layers act together: a structural grammar over the
special tokens (<sub> name <rel> name <obj> name <et> ... <eos>) and
prefix-trie membership for every name segment. Any hypothesis the beam
carries is therefore a prefix of some valid linearization, and every
finished sequence parses with zero diagnostics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .catalog import Catalog, TokenTrie
from .linearize import Triplet, parse
from .tokens import EOS, ET, OBJ, REL, SUB, ByteTokenizer, Tokenizer


@runtime_checkable
class Scorer(Protocol):
    """Next-token distribution contract.

    Implementations must be deterministic for fixed (context, prefix)
    and return a full-vocabulary log-prob vector whose exponentials sum
    to 1 within 1e-6.
    """

    vocab_size: int

    def next_log_probs(self, context: str, prefix: Sequence[int]) -> np.ndarray: ...


class Phase(enum.Enum):
    BOUNDARY = "boundary"  # expecting <sub> or <eos>
    SUBJECT = "subject"  # inside the entity trie
    RELATION = "relation"  # inside the relation trie
    OBJECT = "object"  # inside the entity trie


# phase -> (closing token, trie selector); closer legal only at a terminal cursor
_SEGMENT_CLOSER = {Phase.SUBJECT: REL, Phase.RELATION: OBJ, Phase.OBJECT: ET}


@dataclass(frozen=True)
class DecodeConfig:
    beam_size: int
    max_len: int = 256
    length_alpha: float = 0.0
    allow_empty_set: bool = True
    max_triplets: int | None = None

    def __post_init__(self) -> None:
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.max_len < 2:
            raise ValueError("max_len must be >= 2")
        if self.length_alpha < 0:
            raise ValueError("length_alpha must be >= 0")
        if self.max_triplets is not None and self.max_triplets < 0:
            raise ValueError("max_triplets must be >= 0")


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[int, ...] = ()
    log_prob: float = 0.0
    phase: Phase = Phase.BOUNDARY
    cursor: int | None = None  # trie node while inside a name segment
    n_triplets: int = 0
    finished: bool = False

    def score(self, length_alpha: float) -> float:
        if length_alpha == 0.0 or not self.tokens:
            return self.log_prob
        return self.log_prob / len(self.tokens) ** length_alpha


class NoCompleteHypothesis(RuntimeError):
    """Raised when the beam exhausts max_len with no finished sequence."""

    def __init__(self, message: str, best_partial: Hypothesis | None) -> None:
        super().__init__(message)
        self.best_partial = best_partial


class InvalidSequence(ValueError):
    """Raised when a finished sequence does not parse against the catalog,
    as when the tries were built from a different catalog."""


def allowed_tokens(
    h: Hypothesis, tries: tuple[TokenTrie, TokenTrie], cfg: DecodeConfig
) -> set[int]:
    """Tokens that keep `h` a prefix of some valid linearization."""
    if h.finished:
        raise ValueError("finished hypothesis cannot be extended")
    entity_trie, relation_trie = tries
    if h.phase is Phase.BOUNDARY:
        out: set[int] = set()
        # a new block is only enterable when both tries can complete it
        can_open = len(entity_trie) > 0 and len(relation_trie) > 0
        if can_open and (cfg.max_triplets is None or h.n_triplets < cfg.max_triplets):
            out.add(SUB)
        if h.n_triplets > 0 or cfg.allow_empty_set:
            out.add(EOS)
        return out
    trie = relation_trie if h.phase is Phase.RELATION else entity_trie
    assert h.cursor is not None
    out = set(trie.children_of(h.cursor))
    if trie.terminal_id(h.cursor) is not None:
        out.add(_SEGMENT_CLOSER[h.phase])
    return out


def _extend(
    h: Hypothesis, token: int, lp: float, tries: tuple[TokenTrie, TokenTrie]
) -> Hypothesis:
    entity_trie, relation_trie = tries
    tokens = h.tokens + (token,)
    log_prob = h.log_prob + lp
    if token == SUB:
        return Hypothesis(tokens, log_prob, Phase.SUBJECT, entity_trie.ROOT, h.n_triplets)
    if token == REL:
        return Hypothesis(tokens, log_prob, Phase.RELATION, relation_trie.ROOT, h.n_triplets)
    if token == OBJ:
        return Hypothesis(tokens, log_prob, Phase.OBJECT, entity_trie.ROOT, h.n_triplets)
    if token == ET:
        return Hypothesis(tokens, log_prob, Phase.BOUNDARY, None, h.n_triplets + 1)
    if token == EOS:
        return Hypothesis(tokens, log_prob, Phase.BOUNDARY, None, h.n_triplets, finished=True)
    trie = relation_trie if h.phase is Phase.RELATION else entity_trie
    assert h.cursor is not None
    return Hypothesis(tokens, log_prob, h.phase, trie.child(h.cursor, token), h.n_triplets)


def beam_search(
    text: str,
    scorer: Scorer,
    tries: tuple[TokenTrie, TokenTrie],
    cfg: DecodeConfig,
) -> list[Hypothesis]:
    """Finished hypotheses, best first, under the bi-level constraints.

    Standard beam: every live hypothesis expands with every allowed
    token, then finished and live candidates compete in one pool for the
    top-k slots, ranked by score (log_prob / len^length_alpha) with ties
    broken by the lexicographically smaller token sequence. Search stops
    when no live hypothesis survives or max_len is reached; unfinished
    hypotheses at max_len are discarded. Disallowed tokens' mass is
    dropped, never renormalized, so ranking reflects the scorer's own
    probabilities restricted to valid sequences.

    Raises NoCompleteHypothesis if nothing finishes; the exception
    carries the best partial hypothesis for debugging.
    """
    k = cfg.beam_size

    def sort_key(h: Hypothesis) -> tuple[float, tuple[int, ...]]:
        return (-h.score(cfg.length_alpha), h.tokens)

    live: list[Hypothesis] = [Hypothesis()]
    finished: list[Hypothesis] = []
    for _ in range(cfg.max_len):
        if not live:
            break
        pool = list(finished)
        for h in live:
            allowed = allowed_tokens(h, tries, cfg)
            if not allowed:
                continue
            log_probs = scorer.next_log_probs(text, h.tokens)
            for t in sorted(allowed):
                pool.append(_extend(h, t, float(log_probs[t]), tries))
        pool.sort(key=sort_key)
        kept = pool[:k]
        finished = [h for h in kept if h.finished]
        live = [h for h in kept if not h.finished]
    if not finished:
        best = min(live, key=sort_key) if live else None
        raise NoCompleteHypothesis(
            f"no sequence finished within max_len={cfg.max_len}", best
        )
    return sorted(finished, key=sort_key)


def decode(
    text: str,
    scorer: Scorer,
    cat: Catalog,
    tries: tuple[TokenTrie, TokenTrie],
    cfg: DecodeConfig,
    tok: Tokenizer | None = None,
) -> list[tuple[frozenset[Triplet], float]]:
    """Top-k catalog-valid triplet sets for `text` under `scorer`.

    Runs beam_search and parses each finished sequence; by construction
    every sequence parses with zero diagnostics when the tries were
    built from `cat`, and InvalidSequence is raised otherwise. Each entry
    carries the raw summed log-probability. Results keep beam order
    (score descending), so duplicate sets may appear when distinct
    sequences linearize the same set.
    """
    if tok is None:
        tok = ByteTokenizer()
    results: list[tuple[frozenset[Triplet], float]] = []
    for h in beam_search(text, scorer, tries, cfg):
        parsed = parse(h.tokens, cat, tok)
        if not parsed.ok:
            raise InvalidSequence(
                f"decoded sequence does not parse against the catalog "
                f"(were the tries built from another catalog?): {parsed.diagnostics}"
            )
        results.append((parsed.triplets, h.log_prob))
    return results
