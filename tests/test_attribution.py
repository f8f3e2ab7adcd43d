import itertools
import random

import pytest

from factbeam import EvalPair, Triplet, match, nel_rc_errors
from factbeam.attribution import MissingSpans, edge_weight, ner_error, recall_error

from helpers import (
    mentioned,
    oracle_edge_weight,
    oracle_match,
    rand_catalog,
    rand_eval_pairs,
    weights_one_to_six_pairs,
)


def T(s, r, o):
    return Triplet(s, r, o)


def pair(pred, gold):
    return EvalPair("d", frozenset(pred), frozenset(gold))


# --- edge_weight -------------------------------------------------------------


def test_weight_examples():
    g = T(0, 0, 1)
    assert edge_weight(g, T(0, 0, 1)) == 1
    assert edge_weight(g, T(0, 0, 2)) == 2  # object differs, same relation
    assert edge_weight(g, T(2, 0, 1)) == 2  # subject differs, same relation
    assert edge_weight(g, T(0, 1, 1)) == 3  # same entities, relation differs
    assert edge_weight(g, T(0, 1, 2)) == 4  # one entity shared, relation differs
    assert edge_weight(g, T(2, 1, 1)) == 4
    assert edge_weight(g, T(2, 0, 3)) == 5  # same relation only
    assert edge_weight(g, T(2, 1, 3)) == 6  # nothing in common


def test_weight_exhaustive_over_small_universe():
    universe = [T(s, r, o) for s, r, o in itertools.product(range(3), range(2), range(3))]
    for g in universe:
        for p in universe:
            w = edge_weight(g, p)
            assert w == oracle_edge_weight(g, p)
            assert 1 <= w <= 6


def test_entity_comparison_is_positional():
    # gold subject equals pred object but positions are never crossed
    assert edge_weight(T(0, 0, 1), T(2, 0, 0)) == 5
    assert edge_weight(T(0, 1, 1), T(1, 0, 0)) == 6


# --- match ---------------------------------------------------------------------


def test_perfect_match_all_weight_one():
    gold = frozenset({T(0, 0, 1), T(1, 1, 2)})
    m = match(gold, gold)
    assert len(m) == 2
    assert all(e.weight == 1 and e.pred == e.gold for e in m)


def test_no_predictions_gives_absent_weight_six():
    m = match(frozenset({T(0, 0, 1)}), frozenset())
    assert len(m) == 1
    assert m[0].pred is None
    assert m[0].weight == 6


def test_each_prediction_used_at_most_once():
    gold = frozenset({T(0, 0, 1), T(2, 0, 1)})
    pred = frozenset({T(0, 0, 1)})
    m = match(gold, pred)
    used = [e.pred for e in m if e.pred is not None]
    assert len(used) == len(set(used)) == 1
    weights = sorted(e.weight for e in m)
    assert weights == [1, 6]  # second gold has no prediction left


def test_greedy_prefers_lower_weight_globally():
    # the single pred matches gold1 at weight 2 and gold2 at weight 1;
    # it must go to gold2, leaving gold1 the absent edge at 6
    gold1, gold2 = T(0, 0, 1), T(0, 0, 2)
    pred = frozenset({T(0, 0, 2)})
    m = match(frozenset({gold1, gold2}), pred)
    by_gold = {e.gold: e for e in m}
    assert by_gold[gold2].weight == 1 and by_gold[gold2].pred == gold2
    assert by_gold[gold1].weight == 6 and by_gold[gold1].pred is None


def test_match_against_independent_matcher_random():
    rng = random.Random(37)
    for _ in range(300):
        n_g, n_p = rng.randint(3, 6), rng.randint(3, 6)
        gold = frozenset(
            T(rng.randrange(4), rng.randrange(3), rng.randrange(4)) for _ in range(n_g)
        )
        pred = frozenset(
            T(rng.randrange(4), rng.randrange(3), rng.randrange(4)) for _ in range(n_p)
        )
        mine = {e.gold: (e.pred, e.weight) for e in match(gold, pred)}
        assert mine == oracle_match(gold, pred)


def test_match_covers_every_gold_exactly_once():
    rng = random.Random(41)
    for _ in range(100):
        gold = frozenset(
            T(rng.randrange(3), rng.randrange(2), rng.randrange(3))
            for _ in range(rng.randint(0, 5))
        )
        pred = frozenset(
            T(rng.randrange(3), rng.randrange(2), rng.randrange(3))
            for _ in range(rng.randint(0, 5))
        )
        # one edge per gold triplet, in gold order
        assert [e.gold for e in match(gold, pred)] == sorted(gold)


# --- nel / rc errors -------------------------------------------------------------


def test_weights_fixture_is_diagonal():
    pairs = weights_one_to_six_pairs()
    weights = sorted(e.weight for e in match(pairs[0].gold, pairs[0].predicted))
    assert weights == [1, 2, 3, 4, 5, 6]


def test_nel_rc_on_weights_fixture():
    nel, rc = nel_rc_errors(weights_one_to_six_pairs())
    assert nel == 4 / 6
    assert rc == 3 / 6


def test_perfect_predictions_zero_errors():
    gold = frozenset({T(0, 0, 1), T(1, 1, 0)})
    assert nel_rc_errors([pair(gold, gold)]) == (0.0, 0.0)
    assert recall_error([pair(gold, gold)]) == 0.0


def test_all_disjoint_gives_ones():
    gold = frozenset({T(0, 0, 1)})
    pred = frozenset({T(2, 1, 3)})
    assert nel_rc_errors([pair(pred, gold)]) == (1.0, 1.0)
    assert recall_error([pair(pred, gold)]) == 1.0


def test_empty_gold_gives_zeros():
    assert nel_rc_errors([pair({T(0, 0, 1)}, set())]) == (0.0, 0.0)


def test_nel_zero_iff_weights_in_one_three():
    # weight-3 edges are relation errors only: nel stays 0
    gold = frozenset({T(0, 0, 1)})
    pred = frozenset({T(0, 1, 1)})
    nel, rc = nel_rc_errors([pair(pred, gold)])
    assert nel == 0.0 and rc == 1.0


def test_rc_zero_iff_weights_in_one_two_five():
    gold = frozenset({T(0, 0, 1), T(2, 0, 3), T(4, 0, 5)})
    pred = frozenset({T(0, 0, 1), T(2, 0, 6), T(7, 0, 8)})  # weights 1, 2, 5
    nel, rc = nel_rc_errors([pair(pred, gold)])
    assert rc == 0.0 and nel == pytest.approx(2 / 3)


def test_adding_exact_prediction_fixes_that_gold():
    # nel/rc can shift either way when the freed prediction cascades, but the
    # target itself must land at weight 1 and recall_error drop by 1/|gold|
    rng = random.Random(43)
    checked = 0
    for _ in range(200):
        gold = frozenset(
            T(rng.randrange(4), rng.randrange(3), rng.randrange(4))
            for _ in range(rng.randint(1, 5))
        )
        pred = frozenset(
            T(rng.randrange(4), rng.randrange(3), rng.randrange(4))
            for _ in range(rng.randint(0, 5))
        )
        unmatched = [e.gold for e in match(gold, pred) if e.weight > 1]
        if not unmatched:
            continue
        checked += 1
        target = unmatched[0]
        before = recall_error([pair(pred, gold)])
        after_match = match(gold, pred | {target})
        by_gold = {e.gold: e for e in after_match}
        assert by_gold[target].weight == 1
        after = recall_error([pair(pred | {target}, gold)])
        assert after == pytest.approx(before - 1 / len(gold))
    assert checked > 100


def test_recall_error_is_share_of_inexact_matches_random():
    # reference: the share of greedy match edges with weight > 1
    rng = random.Random(43)
    for _ in range(1000):
        cat = rand_catalog(rng, 4, 3)
        pairs = rand_eval_pairs(rng, cat, rng.randint(0, 5))
        weights = [e.weight for p in pairs for e in match(p.gold, p.predicted)]
        expected = sum(w > 1 for w in weights) / len(weights) if weights else 0.0
        assert recall_error(pairs) == expected


def test_errors_aggregate_over_documents():
    docs = [
        pair({T(0, 0, 1)}, {T(0, 0, 1)}),  # weight 1
        pair(set(), {T(0, 0, 1)}),  # weight 6
    ]
    nel, rc = nel_rc_errors(docs)
    assert nel == pytest.approx(0.5)
    assert rc == pytest.approx(0.5)


# --- ner_error ---------------------------------------------------------------------


def doc(*mts):
    return list(mts)


def test_ner_zero_when_spans_match():
    gold = [doc(mentioned(0, 0, 1, (0, 5), (10, 14)))]
    spans = [[(0, 5), (10, 14)]]
    assert ner_error(gold, spans, "exact") == 0.0
    assert ner_error(gold, spans, "partial") == 0.0


def test_ner_shifted_span_partial_vs_exact():
    gold = [doc(mentioned(0, 0, 1, (0, 5), (10, 14)))]
    spans = [[(1, 6), (10, 14)]]  # subject shifted by one, still overlapping
    assert ner_error(gold, spans, "exact") == 1.0
    assert ner_error(gold, spans, "partial") == 0.0


def test_ner_no_overlap_errs_in_both_modes():
    gold = [doc(mentioned(0, 0, 1, (0, 5), None))]
    spans = [[(5, 9)]]  # half-open: [0,5) and [5,9) do not overlap
    assert ner_error(gold, spans, "exact") == 1.0
    assert ner_error(gold, spans, "partial") == 1.0


def test_ner_eighteen_percent_construction():
    # 100 gold triplets, 18 with an unretrieved mention
    gold_docs, pred_docs = [], []
    for i in range(100):
        sub, obj = (0, 4), (10, 15)
        gold_docs.append(doc(mentioned(0, 0, 1, sub, obj)))
        pred_docs.append([obj] if i < 18 else [sub, obj])
    assert ner_error(gold_docs, pred_docs, "exact") == pytest.approx(0.18)


def test_ner_missing_spans_raises():
    with pytest.raises(MissingSpans):
        ner_error([doc(mentioned(0, 0, 1))], [[]], "exact")


def test_ner_validation():
    gold = [doc(mentioned(0, 0, 1, (0, 2), None))]
    with pytest.raises(ValueError):
        ner_error(gold, [[], []], "exact")  # document count mismatch
    with pytest.raises(ValueError):
        ner_error(gold, [[]], "overlapping")


def test_ner_counts_fraction_of_triplets_not_mentions():
    # one triplet with both mentions missed still counts once
    gold = [doc(mentioned(0, 0, 1, (0, 2), (5, 8)), mentioned(1, 0, 2, (20, 24), (30, 33)))]
    spans = [[(20, 24), (30, 33)]]
    assert ner_error(gold, spans, "exact") == pytest.approx(0.5)
