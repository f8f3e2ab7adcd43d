"""Set-based evaluation: micro/macro precision-recall-F1, occurrence
buckets, and bootstrap confidence intervals.

A predicted triplet counts as correct only if it appears verbatim in
the document's gold set. Micro scores weight every triplet instance
equally; macro scores weight every relation type equally.

Every score reduces one table: each document's (relation, correct,
predicted, gold) count rows, stacked once per corpus. A row counts with
its document's weight, 1 in a plain sequence of pairs and the draw count
in a bootstrap resample. The float64 weighted sums are exact (every
partial sum is an integer below 2^53) and become ints before division.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .catalog import Catalog
from .linearize import Triplet

BOOTSTRAP_LEVEL = 0.95  # the coverage of every bootstrap interval


@dataclass(frozen=True)
class EvalPair:
    """One document's predicted and gold triplet sets."""

    doc_id: str
    predicted: frozenset[Triplet]
    gold: frozenset[Triplet]

    @cached_property
    def relation_counts(self) -> np.ndarray:
        """Read-only (k, 4) int64 array of (relation, correct, n_pred,
        n_gold) rows, one per relation occurring in the document, in
        relation id order."""
        counts: dict[int, list[int]] = {}
        for column, triplets in enumerate((self.predicted & self.gold, self.predicted, self.gold), 1):
            for t in triplets:
                counts.setdefault(t.relation, [t.relation, 0, 0, 0])[column] += 1
        table = np.array(sorted(counts.values()), dtype=np.int64).reshape(-1, 4)
        table.flags.writeable = False
        return table


@dataclass(frozen=True)
class PRF:
    """Precision/recall/F1 with zero-denominator flags.

    Iterable as (p, r, f1) so callers can unpack; `flags` records which
    denominators were zero (the corresponding score is defined as 0).
    """

    p: float
    r: float
    f1: float
    flags: frozenset[str] = frozenset()

    def __iter__(self):
        return iter((self.p, self.r, self.f1))


@dataclass(frozen=True)
class RelationScore:
    p: float
    r: float
    f1: float
    support: int  # gold occurrences of the relation
    flags: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ScoreReport:
    micro: PRF
    macro: PRF
    per_relation: dict[int, RelationScore]


def f1_score(p: float, r: float) -> float:
    """Harmonic mean, 0 when p + r = 0."""
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def _prf(correct: int, n_pred: int, n_gold: int) -> PRF:
    flags = set()
    if n_pred == 0:
        flags.add("no_predictions")
    if n_gold == 0:
        flags.add("no_gold")
    p = correct / n_pred if n_pred else 0.0
    r = correct / n_gold if n_gold else 0.0
    return PRF(p, r, f1_score(p, r), frozenset(flags))


class _CountTable:
    """Every document's relation-count rows, stacked: the (3, N) float64
    correct, n_pred and n_gold counts, each row's document index, the
    ascending relation ids and each row's position among them."""

    def __init__(self, pairs: Iterable[EvalPair]) -> None:
        tables = [pair.relation_counts for pair in pairs]
        rows = np.concatenate(tables or [np.zeros((0, 4), dtype=np.int64)])
        self.doc = np.repeat(np.arange(len(tables)), [len(t) for t in tables])
        self.rels, self.position = np.unique(rows[:, 0], return_inverse=True)
        self.counts = np.ascontiguousarray(rows[:, 1:].T, dtype=np.float64)


class _Resample(Sequence[EvalPair]):
    """A read-only bootstrap resample. It reads as the drawn pairs in draw
    order; the scores reduce the corpus table it carries instead, with
    each document's draw count as its weight."""

    def __init__(self, pairs: Sequence[EvalPair], idx: np.ndarray, table: _CountTable) -> None:
        self._pairs, self._idx, self.table = pairs, idx, table
        self.weights = np.bincount(idx, minlength=len(pairs))

    def __len__(self) -> int:
        return len(self._idx)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._pairs[j] for j in self._idx[i].tolist()]
        return self._pairs[self._idx[i]]


def _weighted_rows(pairs: Iterable[EvalPair]) -> tuple[_CountTable, np.ndarray]:
    """The count table under `pairs` and the weight of each of its rows."""
    if isinstance(pairs, _Resample):
        return pairs.table, pairs.weights[pairs.table.doc]
    table = _CountTable(pairs)
    return table, np.ones(len(table.doc))


def micro_totals(pairs: Iterable[EvalPair]) -> tuple[int, int, int]:
    """(correct, n_pred, n_gold) summed over the documents."""
    table, w = _weighted_rows(pairs)
    return tuple(int(total) for total in table.counts @ w)


def _relation_totals(pairs: Sequence[EvalPair]) -> tuple[np.ndarray, np.ndarray]:
    """Ascending ids of the relations occurring in `pairs` and their
    (3, k) int64 totals of correct, n_pred and n_gold."""
    table, w = _weighted_rows(pairs)
    totals = np.array([np.bincount(table.position, c, len(table.rels)) for c in table.counts * w])
    present = totals[1] + totals[2] > 0
    return table.rels[present], totals[:, present].astype(np.int64)


def _check_grounded(rels: np.ndarray, cat: Catalog) -> None:
    """KeyError naming the smallest relation id outside the catalog;
    `rels` is ascending."""
    if len(rels) and (rels[0] < 0 or rels[-1] >= cat.num_relations):
        bad = rels[0] if rels[0] < 0 else rels[np.searchsorted(rels, cat.num_relations)]
        cat.relation_name(int(bad))


def micro_scores(pairs: Sequence[EvalPair]) -> PRF:
    """(p, r, f1) weighting every triplet instance equally.

    p = sum over docs |P & G| / sum |P|; r uses sum |G|. A zero
    denominator yields score 0 with the matching flag set.
    """
    return _prf(*micro_totals(pairs))


def per_relation_scores(pairs: Sequence[EvalPair], cat: Catalog) -> dict[int, RelationScore]:
    """Micro scores restricted to each relation with any occurrence.

    Relations with zero gold and zero predicted triplets are excluded.
    """
    rels, totals = _relation_totals(pairs)
    _check_grounded(rels, cat)
    return _per_relation(rels, totals)


def _per_relation(rels: np.ndarray, totals: np.ndarray) -> dict[int, RelationScore]:
    out: dict[int, RelationScore] = {}
    for rel, (correct, n_pred, n_gold) in zip(rels.tolist(), totals.T.tolist()):
        prf = _prf(correct, n_pred, n_gold)
        out[rel] = RelationScore(prf.p, prf.r, prf.f1, n_gold, prf.flags)
    return out


def macro_scores(pairs: Sequence[EvalPair], cat: Catalog, zero_denominator: str = "zero") -> PRF:
    """(p, r, f1) weighting every relation type equally.

    Per-relation micro p and r are averaged over all relations with at
    least one gold or predicted occurrence. With zero_denominator="zero"
    (default) a relation with no predictions contributes precision 0, so
    never predicting a relation is penalized; "exclude" drops such
    relations from the affected average instead. f1 is the harmonic
    mean of the averaged p and r.
    """
    rels, totals = _relation_totals(pairs)
    _check_grounded(rels, cat)
    return _averaged(totals, zero_denominator)


def _averaged(totals: np.ndarray, zero_denominator: str) -> PRF:
    """Macro PRF of (3, k) per-relation totals."""
    if zero_denominator not in ("zero", "exclude"):
        raise ValueError("zero_denominator must be 'zero' or 'exclude'")
    correct, n_pred, n_gold = totals
    if not len(correct):
        return PRF(0.0, 0.0, 0.0, frozenset({"no_relations"}))
    predicted, in_gold = n_pred > 0, n_gold > 0
    ps = np.divide(correct, n_pred, out=np.zeros(len(correct)), where=predicted)
    rs = np.divide(correct, n_gold, out=np.zeros(len(correct)), where=in_gold)
    if zero_denominator == "exclude":
        ps, rs = ps[predicted], rs[in_gold]
    # Python's sum adds left to right; np.sum's pairwise order would
    # change the last bits of the averages.
    p = sum(ps.tolist()) / len(ps) if len(ps) else 0.0
    r = sum(rs.tolist()) / len(rs) if len(rs) else 0.0
    flags = frozenset() if predicted.all() else frozenset({"zero_prediction_relations"})
    return PRF(p, r, f1_score(p, r), flags)


def score_report(
    pairs: Sequence[EvalPair], cat: Catalog, zero_denominator: str = "zero"
) -> ScoreReport:
    """Micro, macro and per-relation scores from one set of
    per-relation totals."""
    rels, totals = _relation_totals(pairs)
    _check_grounded(rels, cat)
    return ScoreReport(
        micro=_prf(*totals.sum(axis=1).tolist()),
        macro=_averaged(totals, zero_denominator),
        per_relation=_per_relation(rels, totals),
    )


def bucket_relations(occurrence_counts: Mapping[int, int]) -> dict[int, int]:
    """Map each relation to bucket i = floor(log2(count)).

    Bucket i holds counts in [2^i, 2^(i+1)); count 0 goes to the
    reserved bucket -1.
    """
    out: dict[int, int] = {}
    for rel, count in occurrence_counts.items():
        if count < 0:
            raise ValueError(f"negative occurrence count for relation {rel}")
        out[rel] = count.bit_length() - 1 if count else -1
    return out


def bucket_range(bucket: int) -> tuple[int, int]:
    """The lowest and highest count that bucket_relations puts in bucket."""
    return (2**bucket, 2 ** (bucket + 1) - 1) if bucket >= 0 else (0, 0)


def bucketed_f1(
    pairs: Sequence[EvalPair], occurrence_counts: Mapping[int, int]
) -> dict[int, tuple[float, int]]:
    """Per-bucket micro F1 plus the relations-per-bucket histogram.

    Triplets are partitioned by their relation's bucket; relations
    absent from the counts map land in bucket -1. Buckets with no
    triplets in `pairs` are omitted.
    """
    bucket_of = bucket_relations(occurrence_counts)
    histogram = Counter(bucket_of.values())
    rels, totals = _relation_totals(pairs)
    buckets = np.array([bucket_of.get(rel, -1) for rel in rels.tolist()], dtype=np.int64)
    sums = {b: totals[:, buckets == b].sum(axis=1).tolist() for b in np.unique(buckets).tolist()}
    return {bucket: (_prf(*sums[bucket]).f1, histogram[bucket]) for bucket in sums}


def bootstrap_ci(
    pairs: Sequence[EvalPair],
    statistic: Callable[[Sequence[EvalPair]], float],
    B: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval over document resamples.

    Documents are drawn with replacement B times; the interval holds the
    central BOOTSTRAP_LEVEL share of the statistic values (percentiles).
    Deterministic for a fixed seed. The statistic gets each resample as
    a read-only sequence of the drawn pairs in draw order; this module's
    scores read it as the corpus count table, built once, weighted by
    the documents' draw counts.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not pairs:
        raise ValueError("cannot bootstrap an empty corpus")
    rng = np.random.default_rng(seed)
    n = len(pairs)
    table = _CountTable(pairs)
    values = [statistic(_Resample(pairs, rng.integers(0, n, size=n), table)) for _ in range(B)]
    lo, hi = (1.0 - BOOTSTRAP_LEVEL) / 2.0, (1.0 + BOOTSTRAP_LEVEL) / 2.0
    return float(np.quantile(values, lo)), float(np.quantile(values, hi))
