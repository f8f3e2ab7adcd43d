import math
import random
from fractions import Fraction

import numpy as np
import pytest

from factbeam import EvalPair, Triplet, bootstrap_ci, build_catalog, score_report
from factbeam.attribution import recall_error
from factbeam.metrics import (
    ScoreReport,
    bucket_relations,
    bucketed_f1,
    f1_score,
    macro_scores,
    micro_scores,
    per_relation_scores,
)

from helpers import (
    oracle_macro,
    oracle_micro,
    oracle_per_relation,
    rand_catalog,
    rand_eval_pairs,
    rand_triplet_set,
    ref_bootstrap_ci,
    ref_bucketed_f1,
    ref_macro_scores,
    ref_micro_scores,
    ref_per_relation_scores,
    ref_recall_error,
    ref_relation_counts,
    ref_score_report,
)


def T(s, r, o):
    return Triplet(s, r, o)


def pair(doc_id, pred, gold):
    return EvalPair(doc_id, frozenset(pred), frozenset(gold))


CAT = build_catalog([f"e{i}" for i in range(10)], [f"r{i}" for i in range(5)])


# --- micro -----------------------------------------------------------------


def test_micro_half_right():
    pairs = [pair("d", {T(0, 0, 1), T(0, 0, 2)}, {T(0, 0, 1), T(0, 0, 3)})]
    p, r, f1 = micro_scores(pairs)
    assert (p, r, f1) == (0.5, 0.5, 0.5)


def test_micro_identity():
    pairs = [
        pair("a", {T(0, 0, 1)}, {T(0, 0, 1)}),
        pair("b", {T(1, 2, 3), T(2, 2, 2)}, {T(1, 2, 3), T(2, 2, 2)}),
    ]
    assert tuple(micro_scores(pairs)) == (1.0, 1.0, 1.0)


def test_micro_empty_predictions_flagged():
    pairs = [pair("a", set(), {T(0, 0, 1)})]
    scores = micro_scores(pairs)
    assert tuple(scores) == (0.0, 0.0, 0.0)
    assert "no_predictions" in scores.flags


def test_micro_empty_gold_flagged():
    scores = micro_scores([pair("a", {T(0, 0, 1)}, set())])
    assert scores.r == 0.0
    assert "no_gold" in scores.flags


def test_micro_order_invariant():
    rng = random.Random(2)
    pairs = rand_eval_pairs(rng, CAT, 20)
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    assert micro_scores(pairs) == micro_scores(shuffled)


# --- macro ------------------------------------------------------------------


def test_macro_weights_relations_equally():
    # r0: 100 docs perfect; r1: one doc all wrong
    pairs = [pair(f"d{i}", {T(0, 0, 1)}, {T(0, 0, 1)}) for i in range(100)]
    pairs.append(pair("bad", {T(0, 1, 2)}, {T(3, 1, 4)}))
    macro = macro_scores(pairs, CAT)
    micro = micro_scores(pairs)
    assert macro.f1 == pytest.approx(0.5)
    assert micro.f1 == pytest.approx(100 / 101, abs=1e-9)


def test_macro_single_relation_equals_micro():
    rng = random.Random(5)
    cat = build_catalog([f"e{i}" for i in range(6)], ["only"])
    for _ in range(20):
        pairs = rand_eval_pairs(rng, cat, 6)
        assert tuple(macro_scores(pairs, cat)) == pytest.approx(tuple(micro_scores(pairs)))


def test_macro_balanced_dataset_close_to_micro():
    # every relation appears in the same number of docs with the same confusion
    pairs = []
    for rel in range(5):
        for d in range(10):
            gold = {T(0, rel, 1), T(2, rel, 3)}
            pred = {T(0, rel, 1), T(4, rel, 5)}
            pairs.append(pair(f"r{rel}d{d}", pred, gold))
    macro = macro_scores(pairs, CAT)
    micro = micro_scores(pairs)
    assert macro.r == pytest.approx(micro.r, abs=1e-12)
    assert macro.p == pytest.approx(micro.p, abs=1e-12)


def test_macro_unpredicted_relation_zero_scored_by_default():
    pairs = [
        pair("a", {T(0, 0, 1)}, {T(0, 0, 1)}),
        pair("b", set(), {T(0, 1, 1)}),  # relation 1 never predicted
    ]
    macro = macro_scores(pairs, CAT)
    assert macro.p == pytest.approx(0.5)  # (1 + 0)/2
    assert "zero_prediction_relations" in macro.flags
    excluded = macro_scores(pairs, CAT, zero_denominator="exclude")
    assert excluded.p == pytest.approx(1.0)  # relation 1 dropped from the p average
    assert excluded.r == pytest.approx(0.5)


def test_macro_ignores_absent_relations():
    pairs = [pair("a", {T(0, 3, 1)}, {T(0, 3, 1)})]
    per_rel = per_relation_scores(pairs, CAT)
    assert set(per_rel) == {3}  # relations 0,1,2,4 have no occurrences at all


def test_macro_invalid_mode_rejected():
    with pytest.raises(ValueError):
        macro_scores([], CAT, zero_denominator="drop")


def test_per_relation_support_counts_gold():
    pairs = [pair("a", {T(0, 2, 1)}, {T(0, 2, 1), T(5, 2, 6)})]
    assert per_relation_scores(pairs, CAT)[2].support == 2


def test_per_relation_rejects_ungrounded_ids():
    with pytest.raises(KeyError):
        per_relation_scores([pair("a", {T(0, 99, 1)}, set())], CAT)


def test_f1_properties():
    rng = random.Random(7)
    for _ in range(200):
        p, r = rng.random(), rng.random()
        f1 = f1_score(p, r)
        assert 0.0 <= f1 <= max(p, r)
    assert f1_score(0.0, 0.7) == 0.0
    assert f1_score(0.0, 0.0) == 0.0


def test_report_f1_is_harmonic_mean_of_its_p_and_r():
    rng = random.Random(11)
    for _ in range(50):
        cat = rand_catalog(rng, 8, 4)
        pairs = rand_eval_pairs(rng, cat, rng.randint(1, 10))
        report = score_report(pairs, cat)
        for prf in (report.micro, report.macro):
            assert prf.f1 == pytest.approx(f1_score(prf.p, prf.r), abs=1e-12)
        for s in report.per_relation.values():
            assert s.f1 == pytest.approx(f1_score(s.p, s.r), abs=1e-12)


def test_relation_counts_recount_each_relation():
    rng = random.Random(29)
    for p in rand_eval_pairs(rng, CAT, 200):
        def count(ts, rel):
            return sum(t.relation == rel for t in ts)

        table = p.relation_counts
        assert table.dtype == np.int64 and table.shape == (len(table), 4)
        assert not table.flags.writeable
        assert table.tolist() == [
            [rel, count(p.predicted & p.gold, rel), count(p.predicted, rel), count(p.gold, rel)]
            for rel in sorted({t.relation for t in p.predicted | p.gold})
        ]


def test_score_report_equals_separate_scores():
    rng = random.Random(31)
    for _ in range(100):
        cat = rand_catalog(rng, 6, 4)
        pairs = rand_eval_pairs(rng, cat, rng.randint(0, 8))
        for mode in ("zero", "exclude"):
            report = score_report(pairs, cat, mode)
            assert report.micro == micro_scores(pairs)
            assert report.macro == macro_scores(pairs, cat, mode)
            assert report.per_relation == per_relation_scores(pairs, cat)


def _reference_corpora(seed: int, trials: int):
    """Random corpora with an empty corpus first and documents whose
    predicted or gold set is empty mixed in. Some corpora hold dozens
    of relations, enough for a pairwise float sum to differ from a
    left-to-right one."""
    rng = random.Random(seed)
    yield CAT, []
    for _ in range(trials):
        cat = rand_catalog(rng, 6, rng.choice([4, 8, 60]))
        pairs = rand_eval_pairs(rng, cat, rng.randint(0, 30))
        pairs.append(EvalPair("no-pred", frozenset(), rand_triplet_set(rng, cat)))
        pairs.append(EvalPair("no-gold", rand_triplet_set(rng, cat), frozenset()))
        pairs.append(EvalPair("empty", frozenset(), frozenset()))
        rng.shuffle(pairs)
        yield cat, pairs[: rng.randint(0, len(pairs))]


def test_array_core_equals_dict_loop_reference():
    rng = random.Random(37)
    for cat, pairs in _reference_corpora(37, 300):
        for p in pairs:
            assert p.relation_counts.tolist() == [list(row) for row in ref_relation_counts(p)]
        assert micro_scores(pairs) == ref_micro_scores(pairs)
        assert per_relation_scores(pairs, cat) == ref_per_relation_scores(pairs, cat)
        for mode in ("zero", "exclude"):
            assert macro_scores(pairs, cat, mode) == ref_macro_scores(pairs, cat, mode)
            assert score_report(pairs, cat, mode) == ref_score_report(pairs, cat, mode)
        counts = {
            rel: rng.choice([0, 1, 3, 8, 40])
            for rel in range(cat.num_relations)
            if rng.random() < 0.7
        }
        assert bucketed_f1(pairs, counts) == ref_bucketed_f1(pairs, counts)
        assert recall_error(pairs) == ref_recall_error(pairs)


def test_bootstrap_intervals_equal_dict_loop_reference():
    for cat, pairs in _reference_corpora(41, 12):
        if not pairs:
            continue
        statistics = [(lambda ps: micro_scores(ps).f1, lambda ps: ref_micro_scores(ps).f1)]
        for mode in ("zero", "exclude"):
            statistics.append((
                lambda ps, mode=mode: macro_scores(ps, cat, mode).f1,
                lambda ps, mode=mode: ref_macro_scores(ps, cat, mode).f1,
            ))
        for stat, ref in statistics:
            assert bootstrap_ci(pairs, stat, B=60, seed=5) == bootstrap_ci(pairs, ref, B=60, seed=5)


def _resample_corpora(seed: int, trials: int):
    """`_reference_corpora` without the empty corpus, plus a one-document
    corpus and a one-document corpus with empty predicted and gold sets."""
    corpora = [(cat, pairs) for cat, pairs in _reference_corpora(seed, trials) if pairs]
    rng = random.Random(seed)
    return corpora + [
        (CAT, rand_eval_pairs(rng, CAT, 1)),
        (CAT, [pair("empty", set(), set())]),
    ]


def _custom_statistic(ps) -> float:
    """Reads the resample through len, a negative index, a slice and
    iteration, and scores its first half as a plain list."""
    head = ps[: (len(ps) + 1) // 2]
    return (
        len(ps[-1].gold)
        + sum(len(p.predicted) for p in ps) / len(ps)
        + micro_scores(head).f1
    )


def test_bootstrap_equals_fresh_list_reference():
    for cat, pairs in _resample_corpora(43, 12):
        statistics = [lambda ps: micro_scores(ps).f1, _custom_statistic]
        for mode in ("zero", "exclude"):
            statistics.append(lambda ps, mode=mode: macro_scores(ps, cat, mode).f1)
        for stat in statistics:
            for B in (1, 40):
                assert bootstrap_ci(pairs, stat, B=B, seed=B) == ref_bootstrap_ci(pairs, stat, B=B, seed=B)


def test_resample_reads_as_the_drawn_pairs():
    for _, pairs in _resample_corpora(47, 6):
        seen = []
        bootstrap_ci(pairs, lambda ps: seen.append(ps) or 0.0, B=4, seed=3)
        rng = np.random.default_rng(3)
        for ps in seen:
            drawn = [pairs[i] for i in rng.integers(0, len(pairs), size=len(pairs)).tolist()]
            assert len(ps) == len(drawn) and list(ps) == drawn
            assert [ps[i] for i in range(-len(ps), len(ps))] == drawn + drawn
            assert ps[1:-1:2] == drawn[1:-1:2] and ps[::-1] == drawn[::-1]
            with pytest.raises(IndexError):
                ps[len(ps)]


def _score_or_error(score, *args):
    try:
        return score(*args)
    except KeyError as exc:
        return exc.args


def test_every_score_reads_a_resample_as_its_pairs():
    """Each score of a resample equals its score of the drawn pairs as a
    plain list, relations no drawn document holds and ungrounded ids in
    undrawn documents included."""
    ungrounded = pair("ungrounded", {T(0, 99, 1), T(1, 0, 2)}, {T(0, -1, 1)})
    corpora = _resample_corpora(53, 20) + [(CAT, rand_eval_pairs(random.Random(53), CAT, 5) + [ungrounded])]
    for cat, pairs in corpora:
        counts = {rel: rel % 5 for rel in range(0, cat.num_relations, 2)}

        def check(ps):
            drawn = list(ps)
            assert micro_scores(ps) == micro_scores(drawn)
            assert recall_error(ps) == recall_error(drawn)
            assert bucketed_f1(ps, counts) == bucketed_f1(drawn, counts)
            scores = [(per_relation_scores, cat)]
            scores += [(score, cat, mode) for score in (macro_scores, score_report) for mode in ("zero", "exclude")]
            for score, *args in scores:
                assert _score_or_error(score, ps, *args) == _score_or_error(score, drawn, *args)
            report = _score_or_error(score_report, ps, cat)
            if isinstance(report, ScoreReport):
                assert all(type(s.support) is int for s in report.per_relation.values())
            return 0.0

        bootstrap_ci(pairs, check, B=15, seed=7)


@pytest.mark.parametrize("rels", [[-1], [5], [2, 99, 7], [-3, 1, 5, -1]])
def test_ungrounded_relation_id_message_matches_reference(rels):
    pairs = [pair("a", {T(0, r, 1) for r in rels}, {T(2, 0, 3)})]
    with pytest.raises(KeyError) as expected:
        ref_per_relation_scores(pairs, CAT)
    for score in (per_relation_scores, macro_scores, score_report):
        with pytest.raises(KeyError) as raised:
            score(pairs, CAT)
        assert raised.value.args == expected.value.args


def test_micro_macro_match_rational_oracle():
    rng = random.Random(13)
    for _ in range(100):
        cat = rand_catalog(rng, 6, 4)
        pairs = rand_eval_pairs(rng, cat, rng.randint(0, 8))
        op, orr, of1 = oracle_micro(pairs)
        mp, mr, mf1 = micro_scores(pairs)
        assert mp == pytest.approx(float(op), abs=1e-12)
        assert mr == pytest.approx(float(orr), abs=1e-12)
        assert mf1 == pytest.approx(float(of1), abs=1e-12)
        map_, mar, maf1 = macro_scores(pairs, cat)
        xp, xr, xf1 = oracle_macro(pairs)
        assert map_ == pytest.approx(float(xp), abs=1e-12)
        assert mar == pytest.approx(float(xr), abs=1e-12)
        assert maf1 == pytest.approx(float(xf1), abs=1e-12)


# --- buckets -----------------------------------------------------------------


def test_bucket_boundaries():
    counts = {0: 1, 1: 2, 2: 3, 3: 63, 4: 64, 5: 2**20}
    assert bucket_relations(counts) == {0: 0, 1: 1, 2: 1, 3: 5, 4: 6, 5: 20}


def test_bucket_zero_count_reserved():
    assert bucket_relations({7: 0}) == {7: -1}


def test_bucket_rejects_negative():
    with pytest.raises(ValueError):
        bucket_relations({0: -1})


def test_buckets_exhaustive_and_disjoint():
    for count in list(range(1, 300)) + [2**i for i in range(1, 21)]:
        b = bucket_relations({0: count})[0]
        assert 2**b <= count < 2 ** (b + 1)


def test_single_bucket_equals_overall_micro():
    rng = random.Random(17)
    pairs = rand_eval_pairs(rng, CAT, 10)
    counts = {i: 3 for i in range(5)}  # all relations -> bucket 1
    result = bucketed_f1(pairs, counts)
    assert set(result) <= {1}
    if result:
        f1, n_relations = result[1]
        assert f1 == pytest.approx(micro_scores(pairs).f1)
        assert n_relations == 5


def test_two_bucket_partition_matches_direct_computation():
    counts = {0: 1, 1: 1, 2: 100, 3: 100, 4: 100}
    rng = random.Random(19)
    pairs = rand_eval_pairs(rng, CAT, 15)
    result = bucketed_f1(pairs, counts)
    for bucket, rel_ids in ((0, {0, 1}), (6, {2, 3, 4})):
        sub = [
            EvalPair(
                p.doc_id,
                frozenset(t for t in p.predicted if t.relation in rel_ids),
                frozenset(t for t in p.gold if t.relation in rel_ids),
            )
            for p in pairs
        ]
        if any(p.predicted or p.gold for p in sub):
            f1, n_relations = result[bucket]
            assert f1 == pytest.approx(micro_scores(sub).f1)
            assert n_relations == len(rel_ids)


def test_empty_buckets_omitted():
    pairs = [pair("a", {T(0, 0, 1)}, {T(0, 0, 1)})]
    counts = {0: 4, 1: 1000}  # relation 1 never occurs in pairs
    result = bucketed_f1(pairs, counts)
    assert set(result) == {2}


def test_uncounted_relation_goes_to_reserved_bucket():
    pairs = [pair("a", {T(0, 4, 1)}, {T(0, 4, 1)})]
    result = bucketed_f1(pairs, {0: 8})
    assert set(result) == {-1}
    assert result[-1][0] == pytest.approx(1.0)


# --- bootstrap ------------------------------------------------------------------


def test_bootstrap_degenerate_identical_docs():
    pairs = [pair(f"d{i}", {T(0, 0, 1), T(2, 0, 2)}, {T(0, 0, 1), T(3, 0, 3)}) for i in range(10)]
    low, high = bootstrap_ci(pairs, lambda ps: micro_scores(ps).f1, B=50, seed=1)
    assert low == high == pytest.approx(0.5)


def test_bootstrap_single_resample_collapses():
    rng = random.Random(23)
    pairs = rand_eval_pairs(rng, CAT, 8)
    low, high = bootstrap_ci(pairs, lambda ps: micro_scores(ps).f1, B=1, seed=9)
    assert low == high


def test_bootstrap_deterministic_given_seed():
    rng = random.Random(29)
    pairs = rand_eval_pairs(rng, CAT, 12)
    stat = lambda ps: micro_scores(ps).f1
    assert bootstrap_ci(pairs, stat, B=200, seed=4) == bootstrap_ci(pairs, stat, B=200, seed=4)
    assert bootstrap_ci(pairs, stat, B=200, seed=4) != bootstrap_ci(pairs, stat, B=200, seed=5)


def test_bootstrap_interval_contains_point_estimate_usually():
    # coverage sanity over many seeds on a moderately mixed corpus
    rng = random.Random(31)
    pairs = rand_eval_pairs(rng, CAT, 30, overlap=0.6)
    point = micro_scores(pairs).f1
    hits = 0
    for seed in range(200):
        low, high = bootstrap_ci(pairs, lambda ps: micro_scores(ps).f1, B=200, seed=seed)
        hits += low - 1e-12 <= point <= high + 1e-12
    assert hits >= 198


def test_bootstrap_validation():
    pairs = [pair("a", set(), set())]
    with pytest.raises(ValueError):
        bootstrap_ci(pairs, lambda ps: 0.0, B=0)
    with pytest.raises(ValueError):
        bootstrap_ci([], lambda ps: 0.0)
