"""Recall-error attribution: split end-to-end mistakes into NER, NEL,
and RC components.

Each gold triplet is paired with its closest prediction under a
six-level similarity scale (1 = identical .. 6 = nothing in common),
chosen greedily over a weighted bipartite edge list. Error rates then
count edge weights: entity-linking errors are weights {2, 4, 5, 6},
relation-classification errors are weights {3, 4, 6}. Mention-level
NER error is computed separately from character spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .linearize import MentionedTriplet, Triplet
from .metrics import EvalPair, micro_totals

NEL_WEIGHTS = frozenset({2, 4, 5, 6})
RC_WEIGHTS = frozenset({3, 4, 6})

Span = tuple[int, int]  # half-open character offsets


class MissingSpans(ValueError):
    pass


@dataclass(frozen=True)
class MatchEdge:
    gold: Triplet
    pred: Triplet | None  # None when no prediction was left for this gold
    weight: int


def edge_weight(gold: Triplet, pred: Triplet) -> int:
    """Similarity weight 1..6; smaller is closer.

    Entities compare positionally (subject with subject, object with
    object):
      1 identical; 2 same relation, one entity differs; 3 same entities,
      relation differs; 4 one entity shared, relation differs; 5 same
      relation only; 6 nothing shared.
    """
    sub_eq = gold.subject == pred.subject
    obj_eq = gold.object == pred.object
    if gold.relation == pred.relation:
        if sub_eq and obj_eq:
            return 1
        return 2 if sub_eq or obj_eq else 5
    if sub_eq and obj_eq:
        return 3
    return 4 if sub_eq or obj_eq else 6


def match(gold: frozenset[Triplet], pred: frozenset[Triplet]) -> tuple[MatchEdge, ...]:
    """Greedy minimum-weight pairing of every gold triplet.

    All gold-pred edges are sorted by (weight, gold, pred), with
    triplets in their own (subject, relation, object) order, and taken
    greedily, using each prediction at most once. Gold triplets left
    over pair with an absent prediction at weight 6. Returns one edge
    per gold triplet, in gold order.
    """
    golds, preds = sorted(gold), sorted(pred)
    # Index order is Triplet order and set members are distinct, so
    # sorting (weight, i, j) is sorting (weight, gold, pred).
    edges = sorted(
        (edge_weight(g, p), i, j) for i, g in enumerate(golds) for j, p in enumerate(preds)
    )
    chosen: list[MatchEdge | None] = [None] * len(golds)
    used = [False] * len(preds)
    for weight, i, j in edges:
        if chosen[i] is None and not used[j]:
            chosen[i] = MatchEdge(golds[i], preds[j], weight)
            used[j] = True
    return tuple(e or MatchEdge(g, None, 6) for e, g in zip(chosen, golds))


def nel_rc_errors(pairs: Iterable[EvalPair]) -> tuple[float, float]:
    """(entity-linking, relation-classification) error fractions.

    Both rates share the denominator: the total number of gold triplets
    across all documents. Returns (0.0, 0.0) when there is no gold.
    """
    nel = rc = total = 0
    for pair in pairs:
        for edge in match(pair.gold, pair.predicted):
            total += 1
            nel += edge.weight in NEL_WEIGHTS
            rc += edge.weight in RC_WEIGHTS
    if total == 0:
        return 0.0, 0.0
    return nel / total, rc / total


def recall_error(pairs: Iterable[EvalPair]) -> float:
    """Fraction of gold triplets not matched verbatim (weight > 1).

    `match` takes every weight-1 edge first, so a gold triplet is matched
    verbatim exactly when it is predicted; the fraction is read from the
    documents' relation counts without matching.
    """
    correct, _, total = micro_totals(pairs)
    return (total - correct) / total if total else 0.0


def _overlaps(a: Span, b: Span) -> bool:
    return max(a[0], b[0]) < min(a[1], b[1])


def ner_error(
    gold_docs: Sequence[Sequence[MentionedTriplet]],
    predicted_mentions: Sequence[Sequence[Span]],
    mode: str = "exact",
) -> float:
    """Fraction of gold triplets with an unretrieved entity mention.

    A gold triplet errs when at least one of its mention spans has no
    counterpart among the document's predicted spans: "exact" demands an
    identical span, "partial" accepts any character overlap. Gold
    triplets must carry at least one span (MissingSpans otherwise).
    """
    if mode not in ("exact", "partial"):
        raise ValueError("mode must be 'exact' or 'partial'")
    if len(gold_docs) != len(predicted_mentions):
        raise ValueError("gold and predicted documents differ in number")
    errors = total = 0
    for gold_doc, spans in zip(gold_docs, predicted_mentions):
        span_list = [tuple(s) for s in spans]
        span_set = set(span_list)
        for mt in gold_doc:
            mentions = [s for s in (mt.subject_span, mt.object_span) if s is not None]
            if not mentions:
                raise MissingSpans(f"gold triplet {mt.triplet} carries no mention spans")
            total += 1
            if mode == "exact":
                missed = any(m not in span_set for m in mentions)
            else:
                missed = any(not any(_overlaps(m, s) for s in span_list) for m in mentions)
            if missed:
                errors += 1
    return errors / total if total else 0.0
