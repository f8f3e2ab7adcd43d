import random

import pytest

from factbeam import Triplet, build_catalog, linearize, order_triplets, parse
from factbeam.linearize import MentionedTriplet, UnknownId
from factbeam.tokens import EOS, ET, OBJ, REL, SUB, ByteTokenizer

from helpers import mentioned, rand_catalog, rand_triplet_set, ref_span_sort_key

TOK = ByteTokenizer()
CAT = build_catalog(["Paris", "Rome", "France"], ["capital of", "born in"])


def enc(text):
    return TOK.encode(text)


# --- linearize ----------------------------------------------------------------


def test_single_triplet_template():
    seq = linearize([Triplet(0, 0, 2)], CAT, TOK)
    expected = (
        [SUB] + enc("Paris") + [REL] + enc("capital of") + [OBJ] + enc("France") + [ET, EOS]
    )
    assert seq == expected


def test_empty_set_is_just_eos():
    assert linearize([], CAT, TOK) == [EOS]


def test_two_triplets_concatenate():
    t1, t2 = Triplet(0, 0, 2), Triplet(1, 1, 0)
    seq = linearize([t1, t2], CAT, TOK)
    assert seq == linearize([t1], CAT, TOK)[:-1] + linearize([t2], CAT, TOK)


def test_accepts_mentioned_triplets():
    mt = MentionedTriplet(Triplet(0, 0, 2), (0, 5), (10, 16))
    assert linearize([mt], CAT, TOK) == linearize([Triplet(0, 0, 2)], CAT, TOK)


def test_unknown_id_raises():
    with pytest.raises(UnknownId):
        linearize([Triplet(0, 9, 0)], CAT, TOK)
    with pytest.raises(UnknownId):
        linearize([Triplet(5, 0, 0)], CAT, TOK)


# --- order_triplets -------------------------------------------------------------


def test_earlier_subject_mention_first():
    late = mentioned(0, 0, 1, (40, 45), (50, 54))
    early = mentioned(1, 1, 0, (7, 11), (0, 5))
    assert order_triplets([late, early]) == [early, late]


def test_singleton_unchanged():
    item = mentioned(0, 0, 1, (3, 8), None)
    assert order_triplets([item]) == [item]


def test_same_subject_ties_break_on_object_position():
    a = mentioned(0, 0, 1, (0, 5), (20, 24))
    b = mentioned(0, 1, 2, (0, 5), (9, 15))
    assert order_triplets([a, b]) == [b, a]


def test_spanless_sort_after_spanned_by_id_triple():
    spanned = mentioned(2, 1, 0, (30, 36), (40, 45))
    bare_hi = mentioned(1, 0, 0)
    bare_lo = mentioned(0, 1, 2)
    assert order_triplets([bare_hi, spanned, bare_lo]) == [spanned, bare_lo, bare_hi]


def test_order_matches_explicit_key_random():
    rng = random.Random(11)

    def span():
        # few starts, so spans tie on start often
        if rng.random() < 0.3:
            return None
        start = rng.randrange(4)
        return (start, start + rng.randint(1, 3))

    for _ in range(300):
        items = []
        for _ in range(rng.randint(0, 8)):
            t = Triplet(rng.randrange(3), rng.randrange(2), rng.randrange(3))
            kind = rng.randrange(3)
            if kind == 0:
                items.append(t)
            elif kind == 1:
                items.append(MentionedTriplet(t))
            else:
                items.append(MentionedTriplet(t, span(), span()))
        assert order_triplets(items) == sorted(items, key=ref_span_sort_key)


def test_sort_is_idempotent():
    rng = random.Random(5)
    items = [
        mentioned(
            rng.randrange(3),
            rng.randrange(2),
            rng.randrange(3),
            (rng.randrange(50), rng.randrange(50, 60)),
            (rng.randrange(50), rng.randrange(50, 60)),
        )
        for _ in range(20)
    ]
    once = order_triplets(items)
    assert order_triplets(once) == once


def test_mention_span_validation():
    with pytest.raises(ValueError):
        MentionedTriplet(Triplet(0, 0, 0), (5, 5), None)
    with pytest.raises(ValueError):
        MentionedTriplet(Triplet(0, 0, 0), None, (-1, 3))


# --- parse ----------------------------------------------------------------------


def test_round_trip_small():
    s = frozenset({Triplet(0, 0, 2), Triplet(1, 1, 0)})
    result = parse(linearize(sorted(s), CAT, TOK), CAT, TOK)
    assert result.ok
    assert result.triplets == s


def test_duplicate_blocks_collapse():
    t = Triplet(1, 0, 0)
    seq = linearize([t, t, t], CAT, TOK)
    result = parse(seq, CAT, TOK)
    assert result.ok
    assert result.triplets == {t}


def test_unknown_name_becomes_diagnostic():
    seq = [SUB] + enc("Paris") + [REL] + enc("no such rel") + [OBJ] + enc("Rome") + [ET, EOS]
    result = parse(seq, CAT, TOK)
    assert result.triplets == frozenset()
    assert [d.kind for d in result.diagnostics] == ["unknown_name"]


def test_malformed_block_resyncs_at_next_sub():
    good = linearize([Triplet(0, 0, 1)], CAT, TOK)
    broken = [SUB] + enc("Par") + [OBJ]  # <obj> where <rel> expected
    result = parse(broken + good, CAT, TOK)
    assert result.triplets == {Triplet(0, 0, 1)}
    assert any(d.kind == "malformed_block" for d in result.diagnostics)


def test_missing_eos_reported():
    seq = linearize([Triplet(0, 0, 1)], CAT, TOK)[:-1]
    result = parse(seq, CAT, TOK)
    assert result.triplets == {Triplet(0, 0, 1)}
    assert [d.kind for d in result.diagnostics] == ["missing_eos"]


def test_trailing_tokens_reported():
    seq = linearize([], CAT, TOK) + enc("junk")
    result = parse(seq, CAT, TOK)
    assert [d.kind for d in result.diagnostics] == ["trailing_tokens"]


def test_stray_tokens_before_block():
    seq = enc("noise") + linearize([Triplet(2, 1, 1)], CAT, TOK)
    result = parse(seq, CAT, TOK)
    assert result.triplets == {Triplet(2, 1, 1)}
    assert [d.kind for d in result.diagnostics] == ["stray_token"]


def test_empty_segment_is_malformed():
    seq = [SUB, REL] + enc("capital of") + [OBJ] + enc("Rome") + [ET, EOS]
    result = parse(seq, CAT, TOK)
    assert result.triplets == frozenset()
    assert any(d.kind == "malformed_block" for d in result.diagnostics)


def test_truncated_block_is_malformed():
    seq = [SUB] + enc("Paris")
    result = parse(seq, CAT, TOK)
    assert result.triplets == frozenset()
    kinds = {d.kind for d in result.diagnostics}
    assert "malformed_block" in kinds and "missing_eos" in kinds


def test_undecodable_name_is_diagnostic_not_crash():
    bad_utf8 = [0xFF + 5]
    seq = [SUB] + bad_utf8 + [REL] + enc("born in") + [OBJ] + enc("Rome") + [ET, EOS]
    result = parse(seq, CAT, TOK)
    assert result.triplets == frozenset()
    assert any(d.kind == "unknown_name" for d in result.diagnostics)


def test_parse_total_on_random_garbage():
    rng = random.Random(13)
    for _ in range(300):
        seq = [rng.randrange(261) for _ in range(rng.randint(0, 60))]
        parse(seq, CAT, TOK)  # must not raise, whatever the input


def test_round_trip_and_permutation_invariance_random():
    rng = random.Random(17)
    for _ in range(200):
        cat = rand_catalog(rng, 6, 3)
        s = rand_triplet_set(rng, cat)
        ordered = sorted(s)
        result = parse(linearize(ordered, cat, TOK), cat, TOK)
        assert result.ok and result.triplets == s
        shuffled = list(ordered)
        rng.shuffle(shuffled)
        assert parse(linearize(shuffled, cat, TOK), cat, TOK).triplets == s
