"""Bi-level constrained beam search over linearized triplet sequences.

Two constraint layers act together: a structural grammar over the
special tokens (<sub> name <rel> name <obj> name <et> ... <eos>) and
prefix-trie membership for every name segment. Any hypothesis the beam
carries is therefore a prefix of some valid linearization, and every
finished sequence parses with zero diagnostics.

The model is any `Scorer`: one method, `next_log_probs(context,
prefixes)`, which each beam step calls once with the prefixes of all its
live hypotheses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Protocol, Sequence

import numpy as np

from .catalog import Catalog, TokenTrie
from .linearize import Triplet, parse
from .tokens import EOS, ET, GRAMMAR, NUM_SPECIAL, SUB, Tokenizer


class Scorer(Protocol):
    """Next-token distribution contract: one call scores a whole beam step.

    `next_log_probs(context, prefixes)` returns a (len(prefixes),
    vocab_size) array whose row i is the log-prob vector after
    `prefixes[i]`; its exponentials sum to 1 within 1e-6. A row depends
    only on (context, that prefix), so it is bit-identical whichever
    prefixes it is asked with, and identical calls give identical rows.
    """

    vocab_size: int

    def next_log_probs(self, context: str, prefixes: Sequence[Sequence[int]]) -> np.ndarray: ...


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
        if not (math.isfinite(self.length_alpha) and self.length_alpha >= 0):
            raise ValueError("length_alpha must be finite and >= 0")
        if self.max_triplets is not None and self.max_triplets < 0:
            raise ValueError("max_triplets must be >= 0")


class Hypothesis(NamedTuple):
    """A beam entry. `marker` is the last marker emitted: the opener of
    the name being read (a GRAMMAR key), ET between blocks and at the
    start, EOS once finished. `beam_search` keeps its live entries in
    ascending `tokens` order, and compares `tokens` only when a finished
    entry is tied."""

    tokens: tuple[int, ...] = ()
    log_prob: float = 0.0
    marker: int = ET
    cursor: int | None = None  # trie node while inside a name segment
    n_triplets: int = 0

    @property
    def finished(self) -> bool:
        return self.marker == EOS

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


class InvalidScores(ValueError):
    """Raised when a scorer returns rows of the wrong shape, or NaN for a
    token the constraints allow."""


def allowed_tokens(
    h: Hypothesis, tries: tuple[TokenTrie, TokenTrie], cfg: DecodeConfig
) -> list[int]:
    """Tokens that keep `h` a prefix of some valid linearization, ascending:
    `beam_search`'s live order, and so its tie rule, depends on that order."""
    if h.marker == EOS:
        raise ValueError("finished hypothesis cannot be extended")
    if h.marker == ET:
        out: list[int] = []
        # a new block is only enterable when both tries can complete it
        can_open = len(tries[0]) > 0 and len(tries[1]) > 0
        if can_open and (cfg.max_triplets is None or h.n_triplets < cfg.max_triplets):
            out.append(SUB)
        if h.n_triplets > 0 or cfg.allow_empty_set:
            out.append(EOS)
        return out
    closer, cls = GRAMMAR[h.marker]
    trie = tries[cls]
    out = list(trie.children_of(h.cursor))
    if trie.terminal_id(h.cursor) is not None:
        out.insert(0, closer)  # special ids lie below every content id
    return out


def _extend(
    h: Hypothesis, token: int, lp: float, tries: tuple[TokenTrie, TokenTrie]
) -> Hypothesis:
    tokens = h.tokens + (token,)
    log_prob = h.log_prob + lp
    if token >= NUM_SPECIAL:
        cursor = tries[GRAMMAR[h.marker][1]].child(h.cursor, token)
        return Hypothesis(tokens, log_prob, h.marker, cursor, h.n_triplets)
    if token in GRAMMAR:  # a marker that opens a name
        return Hypothesis(tokens, log_prob, token, tries[GRAMMAR[token][1]].ROOT, h.n_triplets)
    return Hypothesis(tokens, log_prob, token, None, h.n_triplets + (token == ET))


def _top_k(keys: np.ndarray, k: int, n_done: int, tokens_of: Callable[[int], tuple[int, ...]]) -> list[int]:
    """Ascending indices of the k entries ranked first by (-key, tokens_of(i)),
    given entries from n_done on in ascending tokens_of order: their ties go by
    index, and tokens_of is called only when an entry below n_done is tied."""
    n = len(keys)
    if n <= k:
        return list(range(n))
    kth = np.partition(keys, n - k)[n - k]  # the k-th highest key
    chosen = np.flatnonzero(keys > kth).tolist()
    tied = np.flatnonzero(keys == kth).tolist()
    if len(tied) > k - len(chosen):
        tied = (sorted(tied, key=tokens_of) if tied[0] < n_done else tied)[: k - len(chosen)]
    return sorted(chosen + tied)


def beam_search(
    text: str,
    scorer: Scorer,
    tries: tuple[TokenTrie, TokenTrie],
    cfg: DecodeConfig,
) -> list[Hypothesis]:
    """Finished hypotheses, best first, under the bi-level constraints.

    Standard beam: every live hypothesis expands with every allowed
    token, then finished and live candidates compete for the top-k
    slots, ranked by score (log_prob / len^length_alpha) with ties
    broken by the lexicographically smaller token sequence. Search stops
    when no live hypothesis survives or max_len is reached; unfinished
    hypotheses at max_len are discarded. Disallowed tokens' mass is
    dropped, never renormalized, so ranking reflects the scorer's own
    probabilities restricted to valid sequences.

    Each step is array code. One `scorer.next_log_probs` call gives the
    rows of every live hypothesis that can still extend; the candidates'
    scores form one float64 array after the finished hypotheses' scores,
    and `np.partition` finds the k-th highest. Every candidate above it
    survives, and only survivors become Hypothesis objects. `live` stays
    in ascending token order: each live hypothesis has `step` tokens, and
    candidates are built parent by parent, allowed tokens ascending, so
    index order is token order. Ties at the k-th score are taken in index
    order; token sequences are compared only when a finished one is tied.
    Raises InvalidScores when the scorer's rows have the wrong shape or
    a score at an allowed token is NaN (-inf is legal).

    Raises NoCompleteHypothesis if nothing finishes; the exception
    carries the best partial hypothesis for debugging.
    """
    k, alpha = cfg.beam_size, cfg.length_alpha

    def sort_key(h: Hypothesis) -> tuple[float, tuple[int, ...]]:
        return (-h.score(alpha), h.tokens)

    live: list[Hypothesis] = [Hypothesis()]
    finished: list[Hypothesis] = []
    finished_keys = np.empty(0)
    for step in range(cfg.max_len):
        if not live:
            break
        parents: list[Hypothesis] = []
        allowed: list[list[int]] = []
        for h in live:
            tokens = allowed_tokens(h, tries, cfg)
            if tokens:
                parents.append(h)
                allowed.append(tokens)
        sizes = [len(tokens) for tokens in allowed]
        parent = np.repeat(np.arange(len(parents)), sizes)
        token = np.fromiter(itertools.chain.from_iterable(allowed), np.intp, sum(sizes))
        lps = np.empty(0)
        if parents:
            rows = np.asarray(scorer.next_log_probs(text, [h.tokens for h in parents]))
            expected = (len(parents), scorer.vocab_size)
            if rows.shape != expected:
                raise InvalidScores(f"scorer returned shape {rows.shape}, expected {expected}")
            lps = rows[parent, token].astype(np.float64, copy=False)
        scores = np.fromiter((h.log_prob for h in parents), np.float64, len(parents))[parent] + lps
        nan = np.flatnonzero(np.isnan(scores))
        if len(nan):
            bad = int(nan[0])
            raise InvalidScores(
                f"NaN score at step {step} for allowed token {token[bad]} "
                f"after prefix {parents[parent[bad]].tokens}"
            )
        if alpha != 0.0:
            scores /= (step + 1) ** alpha
        keys = np.concatenate((finished_keys, scores))
        n_done = len(finished)

        def tokens_of(i: int) -> tuple[int, ...]:
            if i < n_done:
                return finished[i].tokens
            j = i - n_done
            return parents[parent[j]].tokens + (int(token[j]),)

        kept = _top_k(keys, k, n_done, tokens_of)
        finished_at, next_finished, next_live = [], [], []
        for i in kept:
            if i < n_done:
                h = finished[i]
            else:
                j = i - n_done
                h = _extend(parents[parent[j]], int(token[j]), float(lps[j]), tries)
            if h.finished:
                finished_at.append(i)
                next_finished.append(h)
            else:
                next_live.append(h)
        finished_keys = keys[finished_at]
        finished, live = next_finished, next_live
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
    tok: Tokenizer,
) -> list[tuple[frozenset[Triplet], float]]:
    """Top-k catalog-valid triplet sets for `text` under `scorer`.

    Runs beam_search and parses each finished sequence; by construction
    every sequence parses with zero diagnostics when the tries were
    built from `cat`, and InvalidSequence is raised otherwise. Each entry
    carries the raw summed log-probability. Results keep beam order
    (score descending), so duplicate sets may appear when distinct
    sequences linearize the same set.
    """
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
