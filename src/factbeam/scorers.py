"""Reference scorers: deterministic next-token distributions for testing decoders.

Every scorer satisfies the same contract (`decoder.Scorer`):
``next_log_probs(context, prefixes)`` returns one row per prefix, each a
vocabulary-sized vector of log-probabilities that exponentiates and sums
to 1. A row depends only on the context and its own prefix, and identical
inputs always produce bitwise-identical output. None of these aim at
extraction quality; they exist so the constrained decoder can be
exercised without a neural model.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .tokens import ByteTokenizer, Tokenizer


class UniformScorer:
    """Assigns log(1/V) to every token regardless of context or prefix."""

    __slots__ = ("vocab_size", "_table")

    def __init__(self, vocab_size: int) -> None:
        if vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        self.vocab_size = vocab_size
        self._table = np.full(vocab_size, -math.log(vocab_size))

    def next_log_probs(self, context: str, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        return np.broadcast_to(self._table, (len(prefixes), self.vocab_size))


class OracleScorer:
    """Concentrates probability along one target sequence.

    While the prefix matches the target, the next target token receives
    `mass` and the remainder is spread uniformly over the other tokens.
    Off-target prefixes (or prefixes past the target's end) fall back to
    a uniform distribution.
    """

    __slots__ = ("target", "mass", "vocab_size", "_uniform", "_on", "_off")

    def __init__(self, target: Sequence[int], vocab_size: int, mass: float = 0.99) -> None:
        if not target:
            raise ValueError("target must be non-empty")
        if not 0.0 < mass < 1.0:
            raise ValueError("mass must lie in (0, 1)")
        if vocab_size < 2:
            raise ValueError("vocab_size must be >= 2 to spread residual mass")
        if any(not 0 <= t < vocab_size for t in target):
            raise ValueError("target token outside vocabulary")
        self.target = tuple(target)
        self.mass = mass
        self.vocab_size = vocab_size
        self._uniform = -math.log(vocab_size)
        self._on = math.log(mass)
        self._off = math.log((1.0 - mass) / (vocab_size - 1))

    def next_log_probs(self, context: str, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        out = np.full((len(prefixes), self.vocab_size), self._uniform)
        for i, prefix in enumerate(prefixes):
            n = len(prefix)
            if n < len(self.target) and tuple(prefix) == self.target[:n]:
                out[i] = self._off
                out[i, self.target[n]] = self._on
        return out


class RandomScorer:
    """Deterministic pseudo-random distributions, one per (context, prefix).

    The distribution is derived by hashing (seed, context, prefix) into
    an RNG stream, so repeated calls agree bitwise and different
    prefixes get independent-looking tables. Used for fuzzing.
    """

    __slots__ = ("seed", "vocab_size")

    def __init__(self, seed: int, vocab_size: int) -> None:
        if vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if not -(1 << 63) <= seed < 1 << 63:
            raise ValueError(f"seed {seed} does not fit in a signed 64-bit integer")
        self.seed = seed
        self.vocab_size = vocab_size

    def next_log_probs(self, context: str, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        base = hashlib.blake2b(digest_size=16)
        base.update(self.seed.to_bytes(8, "little", signed=True))
        base.update(context.encode("utf-8"))
        base.update(b"\x00")
        out = np.empty((len(prefixes), self.vocab_size))
        for i, prefix in enumerate(prefixes):
            h = base.copy()
            h.update(np.asarray(prefix, dtype=np.int64).tobytes())
            rng = np.random.default_rng(int.from_bytes(h.digest(), "little"))
            weights = rng.exponential(1.0, self.vocab_size)
            out[i] = np.log(weights / weights.sum())
        return out


class NGramScorer:
    """Add-one-smoothed n-gram model over token sequences.

    Counts are kept for every history length 0..n-1; a query uses the
    longest history available, so order 1 is prefix-independent and the
    start of a sequence is still informed. The input context is encoded
    and prepended to the prefix, giving a crude conditional p(y|x).

    The counts form one table, kept as the logs that smoothing needs. Each
    seen history is packed into an int (its tokens, newest first, as the
    digits t + 1 of a base V + 1 number, so histories of different lengths
    never collide) and `_row` maps it to a row r. History r was followed
    by token `_next[i]` c times, with `_log_count[i]` = log(c + 1), for i
    in `_indptr[r]:_indptr[r + 1]`, and `_log_total[r]` is
    log(c(h) + V). The last row has no entries and stands for every
    unseen history.
    """

    __slots__ = (
        "n", "vocab_size", "tokenizer", "_row", "_indptr", "_next", "_log_count", "_log_total"
    )

    def __init__(
        self, n: int, tokenizer: Tokenizer, sequences: Sequence[Sequence[int]] = ()
    ) -> None:
        if n < 1:
            raise ValueError("order must be >= 1")
        self.n = n
        self.tokenizer = tokenizer
        self.vocab_size = tokenizer.vocab_size
        if (self.vocab_size + 1) ** (n - 1) * self.vocab_size > np.iinfo(np.int64).max:
            raise ValueError(f"order {n} is too high for a {self.vocab_size}-token vocabulary")
        self._count(sequences)

    def _count(self, sequences: Sequence[Sequence[int]]) -> None:
        """Fill the table with one sort per history length over the packed
        (history, next token) windows of every sequence."""
        V, W, h = self.vocab_size, self.vocab_size + 1, self.n - 1
        for seq in sequences:
            if len(seq) and not (0 <= min(seq) and max(seq) < V):
                raise ValueError(f"token {next(t for t in seq if not 0 <= t < V)} outside vocabulary")
        lens = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
        flat = np.fromiter(
            itertools.chain.from_iterable(sequences),
            dtype=np.int16 if V <= np.iinfo(np.int16).max else np.int32,
            count=int(lens.sum()),
        )
        # depth[i]: how many tokens precede position i in its sequence, capped at h
        depth = np.full(len(flat), h, dtype=np.int8)
        starts = np.cumsum(lens) - lens
        for j in range(h):
            depth[starts[lens > j] + j] = j
        pairs, counts = [], []
        for m in range(h + 1):
            at = depth >= m  # positions with a history of length m
            # Horner's rule in place: newest history token first, next token last
            windows = np.zeros(np.count_nonzero(at), dtype=np.int64)
            for j in range(1, m + 1):
                windows *= W
                windows += flat[:-j][at[j:]]
                windows += 1
            windows *= V
            windows += flat[at]
            windows.sort()
            first = _run_starts(windows)
            counts.append(np.diff(first, append=len(windows)))
            pairs.append(windows[first])
            del at, windows
        del flat, depth
        pair = np.concatenate(pairs)
        count = np.concatenate(counts)
        hist = pair // V
        row_first = _run_starts(hist)
        self._row = dict(zip(hist[row_first].tolist(), range(len(row_first))))
        self._indptr = np.append(row_first, [len(pair), len(pair)])
        self._next = pair % V
        self._log_count = np.log(count + 1.0)
        totals = np.add.reduceat(count, row_first).tolist() + [0]
        self._log_total = np.array([math.log(t + V) for t in totals])

    def next_log_probs(self, context: str, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        V, W, h = self.vocab_size, self.vocab_size + 1, self.n - 1
        ctx = None  # the context's last h tokens, encoded once if some prefix is shorter than h
        unseen = len(self._log_total) - 1
        rows = []
        for prefix in prefixes:
            if not h:
                rows.append(self._row.get(0, unseen))
                continue
            if len(prefix) >= h:
                hist = prefix[-h:]
            else:
                if ctx is None:
                    ctx = self.tokenizer.encode(context)[-h:]
                hist = (ctx + list(prefix))[-h:]
            key = 0
            for t in reversed(hist):
                if not 0 <= t < V:
                    key = -1  # never a packed key: the history is unseen
                    break
                key = key * W + t + 1
            rows.append(self._row.get(key, unseen))
        r = np.array(rows, dtype=np.intp)
        log_total = self._log_total[r]
        # add-one smoothing: log(c(h,t) + 1) - log(c(h) + V), where log(0 + 1) = 0
        out = np.empty((len(rows), V))
        out[:] = (0.0 - log_total)[:, None]
        lo = self._indptr[r]
        sizes = self._indptr[r + 1] - lo
        at = np.arange(sizes.sum()) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
        owner = np.repeat(np.arange(len(rows)), sizes)
        out[owner, self._next[at]] = self._log_count[at] - log_total[owner]
        return out


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in `a`."""
    new = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return np.flatnonzero(new)


def train_ngram(
    corpus: Iterable[Sequence[int]], n: int = 3, tokenizer: Tokenizer | None = None
) -> NGramScorer:
    """Fit an NGramScorer on token sequences (add-one smoothing).

    The corpus must be non-empty. Sequences should already include any
    context tokens the caller wants the model conditioned on.
    """
    sequences = list(corpus)
    if not sequences:
        raise ValueError("corpus must be non-empty")
    return NGramScorer(n, tokenizer if tokenizer is not None else ByteTokenizer(), sequences)
