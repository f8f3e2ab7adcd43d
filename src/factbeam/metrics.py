"""Set-based evaluation: micro/macro precision-recall-F1, occurrence
buckets, and bootstrap confidence intervals.

A predicted triplet counts as correct only if it appears verbatim in
the document's gold set. Micro scores weight every triplet instance
equally; macro scores weight every relation type equally.

Every score is a reduction of one table: each document's
(relation, correct, predicted, gold) counts, computed once per
`EvalPair` and summed over the documents being scored.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .catalog import Catalog
from .linearize import Triplet


@dataclass(frozen=True)
class EvalPair:
    """One document's predicted and gold triplet sets."""

    doc_id: str
    predicted: frozenset[Triplet]
    gold: frozenset[Triplet]

    @cached_property
    def relation_counts(self) -> tuple[tuple[int, int, int, int], ...]:
        """(relation, correct, n_pred, n_gold) per relation occurring in
        the document, in relation id order."""
        counts: dict[int, list[int]] = {}
        for column, triplets in enumerate((self.predicted & self.gold, self.predicted, self.gold)):
            for t in triplets:
                counts.setdefault(t.relation, [0, 0, 0])[column] += 1
        return tuple((rel, *row) for rel, row in sorted(counts.items()))


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


def _relation_totals(pairs: Sequence[EvalPair]) -> dict[int, list[int]]:
    """relation -> [correct, n_pred, n_gold] summed over the documents."""
    totals: dict[int, list[int]] = {}
    for pair in pairs:
        for rel, correct, n_pred, n_gold in pair.relation_counts:
            row = totals.get(rel)
            if row is None:
                totals[rel] = [correct, n_pred, n_gold]
            else:
                row[0] += correct
                row[1] += n_pred
                row[2] += n_gold
    return totals


def micro_scores(pairs: Sequence[EvalPair]) -> PRF:
    """(p, r, f1) weighting every triplet instance equally.

    p = sum over docs |P & G| / sum |P|; r uses sum |G|. A zero
    denominator yields score 0 with the matching flag set.
    """
    rows = _relation_totals(pairs).values()
    return _prf(*(sum(row[i] for row in rows) for i in range(3)))


def per_relation_scores(
    pairs: Sequence[EvalPair], cat: Catalog
) -> dict[int, RelationScore]:
    """Micro scores restricted to each relation with any occurrence.

    Relations with zero gold and zero predicted triplets are excluded.
    """
    out: dict[int, RelationScore] = {}
    for rel, (correct, n_pred, n_gold) in sorted(_relation_totals(pairs).items()):
        cat.relation_name(rel)  # KeyError on ungrounded relation id
        prf = _prf(correct, n_pred, n_gold)
        out[rel] = RelationScore(prf.p, prf.r, prf.f1, n_gold, prf.flags)
    return out


def macro_scores(
    pairs: Sequence[EvalPair], cat: Catalog, zero_denominator: str = "zero"
) -> PRF:
    """(p, r, f1) weighting every relation type equally.

    Per-relation micro p and r are averaged over all relations with at
    least one gold or predicted occurrence. With zero_denominator="zero"
    (default) a relation with no predictions contributes precision 0, so
    never predicting a relation is penalized; "exclude" drops such
    relations from the affected average instead. f1 is the harmonic
    mean of the averaged p and r.
    """
    return _macro(per_relation_scores(pairs, cat), zero_denominator)


def _macro(per_rel: Mapping[int, RelationScore], zero_denominator: str) -> PRF:
    if zero_denominator not in ("zero", "exclude"):
        raise ValueError("zero_denominator must be 'zero' or 'exclude'")
    if not per_rel:
        return PRF(0.0, 0.0, 0.0, frozenset({"no_relations"}))
    if zero_denominator == "zero":
        ps = [s.p for s in per_rel.values()]
        rs = [s.r for s in per_rel.values()]
    else:
        ps = [s.p for s in per_rel.values() if "no_predictions" not in s.flags]
        rs = [s.r for s in per_rel.values() if "no_gold" not in s.flags]
    flags = set()
    if any("no_predictions" in s.flags for s in per_rel.values()):
        flags.add("zero_prediction_relations")
    p = sum(ps) / len(ps) if ps else 0.0
    r = sum(rs) / len(rs) if rs else 0.0
    return PRF(p, r, f1_score(p, r), frozenset(flags))


def score_report(
    pairs: Sequence[EvalPair], cat: Catalog, zero_denominator: str = "zero"
) -> ScoreReport:
    """Micro, macro and per-relation scores; the per-relation scores are
    computed once and macro averages them."""
    per_rel = per_relation_scores(pairs, cat)
    return ScoreReport(
        micro=micro_scores(pairs),
        macro=_macro(per_rel, zero_denominator),
        per_relation=per_rel,
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
    sums: dict[int, list[int]] = {}
    for rel, row in _relation_totals(pairs).items():
        acc = sums.setdefault(bucket_of.get(rel, -1), [0, 0, 0])
        for i in range(3):
            acc[i] += row[i]
    return {
        bucket: (_prf(*sums[bucket]).f1, histogram[bucket]) for bucket in sorted(sums)
    }


def bootstrap_ci(
    pairs: Sequence[EvalPair],
    statistic: Callable[[Sequence[EvalPair]], float],
    B: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval over document resamples.

    Documents are drawn with replacement B times; the interval is the
    [(1-level)/2, (1+level)/2] quantile pair of the statistic values.
    Deterministic for a fixed seed.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    if not 0 < level < 1:
        raise ValueError("level must lie in (0, 1)")
    if not pairs:
        raise ValueError("cannot bootstrap an empty corpus")
    rng = np.random.default_rng(seed)
    n = len(pairs)
    values = np.empty(B)
    for b in range(B):
        idx = rng.integers(0, n, size=n)
        values[b] = statistic([pairs[i] for i in idx])
    lo, hi = (1.0 - level) / 2.0, (1.0 + level) / 2.0
    return float(np.quantile(values, lo)), float(np.quantile(values, hi))
