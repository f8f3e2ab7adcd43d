import math
import random

import numpy as np
import pytest

from factbeam import (
    DecodeConfig,
    InvalidScores,
    RandomScorer,
    Triplet,
    build_catalog,
    build_trie,
    decode,
    linearize,
    order_triplets,
    parse,
    train_ngram,
)
from factbeam.decoder import (
    Hypothesis,
    InvalidSequence,
    NoCompleteHypothesis,
    _top_k,
    allowed_tokens,
    beam_search,
)
from factbeam.scorers import OracleScorer, UniformScorer
from factbeam.tokens import EOS, ET, OBJ, REL, SUB, ByteTokenizer

from helpers import (
    CachingScorer,
    all_valid_sequences,
    oracle_best_sequence,
    rand_catalog,
    rand_triplet_set,
    ref_beam_search,
    walk,
)

TOK = ByteTokenizer()
V = TOK.vocab_size


def make_tries(cat):
    return (
        build_trie(list(enumerate(cat.entity_names)), TOK),
        build_trie(list(enumerate(cat.relation_names)), TOK),
    )


CAT = build_catalog(["Rome", "Romeo"], ["born in"])
TRIES = make_tries(CAT)


# --- allowed_tokens ------------------------------------------------------------


def test_fresh_boundary_offers_sub_and_eos():
    cfg = DecodeConfig(beam_size=1)
    assert allowed_tokens(Hypothesis(), TRIES, cfg) == [SUB, EOS]


def test_fresh_boundary_without_empty_set():
    cfg = DecodeConfig(beam_size=1, allow_empty_set=False)
    assert allowed_tokens(Hypothesis(), TRIES, cfg) == [SUB]


def test_boundary_after_triplet_offers_both():
    cfg = DecodeConfig(beam_size=1, allow_empty_set=False)
    h = Hypothesis(tokens=(SUB,), marker=ET, n_triplets=1)
    assert allowed_tokens(h, TRIES, cfg) == [SUB, EOS]


def test_max_triplets_blocks_new_block():
    cfg = DecodeConfig(beam_size=1, max_triplets=1)
    h = Hypothesis(tokens=(SUB,), marker=ET, n_triplets=1)
    assert allowed_tokens(h, TRIES, cfg) == [EOS]


def test_empty_catalog_boundary_offers_only_eos():
    empty = build_trie([], TOK)
    cfg = DecodeConfig(beam_size=1)
    assert allowed_tokens(Hypothesis(), (empty, TRIES[1]), cfg) == [EOS]
    assert allowed_tokens(Hypothesis(), (TRIES[0], empty), cfg) == [EOS]


def test_subject_terminal_offers_continuation_and_closer():
    # cursor at "Rome" in trie over {"Rome", "Romeo"}
    node = walk(TRIES[0], TOK.encode("Rome"))
    h = Hypothesis(tokens=(SUB, *TOK.encode("Rome")), marker=SUB, cursor=node)
    assert allowed_tokens(h, TRIES, DecodeConfig(beam_size=1)) == [REL, TOK.encode("o")[0]]


def test_object_leaf_offers_only_closer():
    node = walk(TRIES[0], TOK.encode("Romeo"))
    h = Hypothesis(tokens=(), marker=OBJ, cursor=node)
    assert allowed_tokens(h, TRIES, DecodeConfig(beam_size=1)) == [ET]


def test_relation_terminal_offers_obj():
    node = walk(TRIES[1], TOK.encode("born in"))
    h = Hypothesis(tokens=(), marker=REL, cursor=node)
    assert allowed_tokens(h, TRIES, DecodeConfig(beam_size=1)) == [OBJ]


def test_mid_name_offers_trie_continuations_only():
    node = walk(TRIES[0], TOK.encode("Ro"))
    h = Hypothesis(tokens=(), marker=SUB, cursor=node)
    assert allowed_tokens(h, TRIES, DecodeConfig(beam_size=1)) == [TOK.encode("m")[0]]


def test_finished_hypothesis_cannot_extend():
    with pytest.raises(ValueError):
        allowed_tokens(Hypothesis(marker=EOS), TRIES, DecodeConfig(beam_size=1))


def test_allowed_never_empty_for_live_fuzz():
    rng = random.Random(31)
    cfg = DecodeConfig(beam_size=3, max_len=64)
    for _ in range(40):
        cat = rand_catalog(rng, 8, 3, 1, 4)
        tries = make_tries(cat)
        scorer = RandomScorer(rng.randrange(1 << 30), V)
        for h in beam_search("t", scorer, tries, cfg):
            # replay the sequence, asserting non-empty allowed sets throughout
            cur = Hypothesis()
            for t in h.tokens:
                allowed = allowed_tokens(cur, tries, cfg)
                assert allowed, f"empty allowed set at {cur.tokens}"
                # beam_search's live order, and so its tie rule, rests on this
                assert allowed == sorted(set(allowed)), f"allowed not ascending at {cur.tokens}"
                assert t in allowed
                cur = _extend_public(cur, t, tries)


def _extend_public(h, t, tries):
    from factbeam.decoder import _extend

    return _extend(h, t, 0.0, tries)


def test_every_linearization_walks_the_decoder_grammar():
    rng = random.Random(37)
    cfg = DecodeConfig(beam_size=1)
    for _ in range(200):
        cat = rand_catalog(rng, 8, 4, 1, 5)
        tries = make_tries(cat)
        items = [
            Triplet(rng.randrange(cat.num_entities), rng.randrange(cat.num_relations),
                    rng.randrange(cat.num_entities))
            for _ in range(rng.randint(0, 4))
        ]
        seq = linearize(items, cat, TOK)
        h = Hypothesis()
        for t in seq:
            assert t in allowed_tokens(h, tries, cfg), (seq, h)
            h = _extend_public(h, t, tries)
        assert h.finished and h.n_triplets == len(items)
        parsed = parse(seq, cat, TOK)
        assert parsed.ok and parsed.triplets == frozenset(items)


# --- decode ---------------------------------------------------------------------


def test_oracle_target_is_top1():
    target_set = frozenset({Triplet(1, 0, 0)})
    target = linearize(sorted(target_set), CAT, TOK)
    scorer = OracleScorer(target, vocab_size=V)
    results = decode("", scorer, CAT, TRIES, DecodeConfig(beam_size=3), TOK)
    assert results[0][0] == target_set


def test_invalid_oracle_target_still_yields_valid_output():
    # grammar-violating target: two <sub> in a row
    scorer = OracleScorer([SUB, SUB, EOS], vocab_size=V)
    for h in beam_search("", scorer, TRIES, DecodeConfig(beam_size=4, max_len=32)):
        assert parse(h.tokens, CAT, TOK).ok


def test_uniform_ranking_is_length_then_lex():
    cat = build_catalog(["aa", "ab"], ["r"])
    tries = make_tries(cat)
    hyps = beam_search("", UniformScorer(V), tries, DecodeConfig(beam_size=6, max_len=30, max_triplets=1))
    seqs = [h.tokens for h in hyps]
    # empty set shortest, then the four equal-length single triplets in lex order
    assert seqs[0] == (EOS,)
    lex_sorted = sorted(seqs[1:])
    assert list(seqs[1:]) == lex_sorted
    assert len({len(s) for s in seqs[1:]}) == 1


def test_scores_non_increasing():
    rng = random.Random(43)
    for _ in range(20):
        cat = rand_catalog(rng, 6, 3, 1, 4)
        scorer = RandomScorer(rng.randrange(1 << 30), V)
        results = decode("d", scorer, cat, make_tries(cat), DecodeConfig(beam_size=5, max_len=64, max_triplets=2), TOK)
        scores = [lp for _, lp in results]
        assert scores == sorted(scores, reverse=True)


def test_score_additivity():
    rng = random.Random(47)
    cat = rand_catalog(rng, 5, 2, 1, 4)
    scorer = CachingScorer(RandomScorer(9, V))
    for h in beam_search("ctx", scorer, make_tries(cat), DecodeConfig(beam_size=4, max_len=64, max_triplets=2)):
        assert h.log_prob == pytest.approx(
            scorer.score_sequence("ctx", h.tokens), abs=1e-9
        )


def test_every_result_parses_with_zero_diagnostics():
    rng = random.Random(53)
    for _ in range(50):
        cat = rand_catalog(rng, 10, 4, 1, 5)
        tries = make_tries(cat)
        scorer = RandomScorer(rng.randrange(1 << 30), V)
        for h in beam_search("x", scorer, tries, DecodeConfig(beam_size=3, max_len=80, max_triplets=2)):
            result = parse(h.tokens, cat, TOK)
            assert result.ok
            assert all(
                t.subject < cat.num_entities
                and t.object < cat.num_entities
                and t.relation < cat.num_relations
                for t in result.triplets
            )


def test_brute_force_argmax_small_instance():
    rng = random.Random(59)
    cat = rand_catalog(rng, 3, 2, 1, 2)
    tries = make_tries(cat)
    scorer = CachingScorer(RandomScorer(123, V))
    sequences = all_valid_sequences(cat, TOK, max_triplets=1, max_len=60)
    best_seq, best_score = oracle_best_sequence(sequences, scorer, "ctx")
    cfg = DecodeConfig(beam_size=len(sequences), max_len=60, max_triplets=1)
    top = beam_search("ctx", scorer, tries, cfg)[0]
    assert top.tokens == best_seq
    assert top.log_prob == pytest.approx(best_score, abs=1e-9)


def test_constraint_non_interference():
    # catalog-valid oracle target: constrained top-1 equals the target,
    # which is also the unconstrained argmax over the enumeration space
    rng = random.Random(61)
    for _ in range(10):
        cat = rand_catalog(rng, 3, 2, 1, 3)
        tries = make_tries(cat)
        t = Triplet(
            rng.randrange(cat.num_entities),
            rng.randrange(cat.num_relations),
            rng.randrange(cat.num_entities),
        )
        target = tuple(linearize([t], cat, TOK))
        scorer = CachingScorer(OracleScorer(target, vocab_size=V))
        sequences = all_valid_sequences(cat, TOK, max_triplets=1, max_len=len(target) + 20)
        best_seq, _ = oracle_best_sequence(sequences, scorer, "")
        assert best_seq == target
        top = beam_search("", scorer, tries, DecodeConfig(beam_size=8, max_len=len(target) + 20, max_triplets=1))[0]
        assert top.tokens == target


def test_empty_set_only_for_empty_catalog():
    empty = build_trie([], TOK)
    results = decode("", UniformScorer(V), CAT, (empty, empty), DecodeConfig(beam_size=2), TOK)
    assert results == [(frozenset(), pytest.approx(-float(__import__("math").log(V))))]


def test_no_complete_hypothesis_carries_best_partial():
    with pytest.raises(NoCompleteHypothesis) as exc_info:
        beam_search("", UniformScorer(V), TRIES, DecodeConfig(beam_size=2, max_len=3, allow_empty_set=False))
    partial = exc_info.value.best_partial
    assert partial is not None
    assert not partial.finished
    assert len(partial.tokens) == 3


def test_duplicate_sets_can_appear_in_results():
    cat = build_catalog(["a"], ["r"])
    tries = make_tries(cat)
    cfg = DecodeConfig(beam_size=12, max_len=40, max_triplets=2, allow_empty_set=False)
    results = decode("", UniformScorer(V), cat, tries, cfg, TOK)
    sets = [ts for ts, _ in results]
    only = frozenset({Triplet(0, 0, 0)})
    # the single block and the duplicated block both linearize to {only}
    assert sets.count(only) == 2


def test_decode_refuses_same_size_tries_of_other_names():
    cat = build_catalog(["Paris", "Rome", "Tiber"], ["capital of"])
    tries = make_tries(build_catalog(["Seine", "Oslo", "Bern"], ["capital of"]))
    cfg = DecodeConfig(beam_size=2, max_triplets=1, allow_empty_set=False)
    with pytest.raises(InvalidSequence, match="another catalog"):
        decode("", UniformScorer(V), cat, tries, cfg, TOK)


def test_max_triplets_respected():
    rng = random.Random(67)
    cat = rand_catalog(rng, 4, 2, 1, 3)
    tries = make_tries(cat)
    for h in beam_search("", RandomScorer(5, V), tries, DecodeConfig(beam_size=6, max_len=100, max_triplets=2)):
        assert h.tokens.count(ET) <= 2


def test_decode_deterministic():
    cat = rand_catalog(random.Random(71), 8, 3, 1, 4)
    tries = make_tries(cat)
    cfg = DecodeConfig(beam_size=4, max_len=64, max_triplets=2)
    a = decode("same", RandomScorer(2, V), cat, tries, cfg, TOK)
    b = decode("same", RandomScorer(2, V), cat, tries, cfg, TOK)
    assert a == b


def test_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(beam_size=0)
    with pytest.raises(ValueError):
        DecodeConfig(beam_size=1, max_len=1)
    with pytest.raises(ValueError):
        DecodeConfig(beam_size=1, length_alpha=-0.1)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_length_alpha(alpha):
    with pytest.raises(ValueError, match="length_alpha must be finite"):
        DecodeConfig(beam_size=1, length_alpha=alpha)


def test_length_alpha_changes_ranking():
    # with heavy normalization longer sequences can outrank the empty set
    cat = build_catalog(["a"], ["r"])
    tries = make_tries(cat)
    raw = beam_search("", UniformScorer(V), tries, DecodeConfig(beam_size=3, max_len=30, max_triplets=1))
    norm = beam_search("", UniformScorer(V), tries, DecodeConfig(beam_size=3, max_len=30, max_triplets=1, length_alpha=1.0))
    assert raw[0].tokens == (EOS,)
    assert all(h.score(1.0) == pytest.approx(raw[0].score(1.0)) for h in norm)


# --- the surface the traced benchmark run decodes through ---------------------


class _NarrowTrie:
    """Only the trie members the benchmark's traced run forwards."""

    def __init__(self, trie):
        self.ROOT = trie.ROOT
        self._len = trie.__len__
        self.children_of = trie.children_of
        self.child = trie.child
        self.terminal_id = trie.terminal_id

    def __len__(self):
        return self._len()


class _NarrowScorer:
    """Only the scorer members the benchmark's traced run forwards. It
    records the prefixes of every call, sorted."""

    def __init__(self, scorer):
        self.vocab_size = scorer.vocab_size
        self.calls = []

        def next_log_probs(context, prefixes):
            self.calls.append(sorted(map(tuple, prefixes)))
            return scorer.next_log_probs(context, prefixes)

        self.next_log_probs = next_log_probs


def _decode_or_partial(scorer, cat, tries, cfg):
    try:
        return decode("ctx", scorer, cat, tries, cfg, TOK)
    except NoCompleteHypothesis as exc:
        return exc.best_partial


def test_decode_through_the_traced_run_surface_equals_plain_decode():
    import factbeam.decoder

    # the traced run replaces these module attributes by name
    assert callable(factbeam.decoder.allowed_tokens)
    assert callable(factbeam.decoder.parse)
    rng = random.Random(89)
    for case in range(60):
        cat = rand_catalog(rng, 6, 3, 1, 4)
        tries = make_tries(cat)
        if case % 3 == 0:
            scorer = RandomScorer(rng.randrange(1 << 30), V)
        elif case % 3 == 1:
            target = linearize(order_triplets(rand_triplet_set(rng, cat, 2)), cat, TOK)
            scorer = OracleScorer(target, vocab_size=V)
        else:
            corpus = [
                TOK.encode("ctx") + linearize(order_triplets(rand_triplet_set(rng, cat, 2)), cat, TOK)
                for _ in range(4)
            ]
            scorer = train_ngram(corpus, n=3, tokenizer=TOK)
        cfg = DecodeConfig(
            beam_size=rng.randint(1, 8), max_len=rng.choice((8, 40)),
            length_alpha=rng.choice((0.0, 1.0)), max_triplets=rng.choice((None, 2)),
        )
        plain = _decode_or_partial(scorer, cat, tries, cfg)
        narrow_tries = (_NarrowTrie(tries[0]), _NarrowTrie(tries[1]))
        narrow = _NarrowScorer(scorer)
        assert _decode_or_partial(narrow, cat, narrow_tries, cfg) == plain, case
        # one call per step with live rows, carrying every live prefix: the
        # reference beam asks for the same prefixes one at a time
        one_by_one = _NarrowScorer(scorer)
        _search(ref_beam_search, "ctx", one_by_one, tries, cfg)
        by_step = {}
        for (prefix,) in one_by_one.calls:
            by_step.setdefault(len(prefix), []).append(prefix)
        assert narrow.calls == [sorted(by_step[n]) for n in range(len(by_step))], case


# --- array step against the object-based reference --------------------------


def _tied_table_scorer(rng, cat):
    """Uniform, except for rows at the prefixes of a few linearizations,
    built from four weights (0 among them, so -inf entries occur): many
    equal log-probs, and so many tied scores."""
    scorer = CachingScorer(UniformScorer(V))
    for _ in range(3):
        seq = linearize(order_triplets(rand_triplet_set(rng, cat, 2)), cat, TOK)
        for i in range(len(seq)):
            weights = np.array([rng.choice((0.0, 1.0, 2.0, 4.0)) for _ in range(V)])
            weights[rng.randrange(V)] = 1.0
            with np.errstate(divide="ignore"):
                scorer.cache["ctx", tuple(seq[:i])] = np.log(weights / weights.sum())
    return scorer


def _search(search, text, scorer, tries, cfg):
    try:
        return search(text, scorer, tries, cfg), None
    except NoCompleteHypothesis as exc:
        return None, exc.best_partial


def test_array_step_equals_object_reference(monkeypatch):
    """Also checks the beam's live order: `allowed_tokens` is called once
    per live hypothesis in `live` order, so each step's prefixes must come
    ascending; and token tuples are compared only when a finished
    hypothesis is tied at the k-th score, which these cases reach."""
    import factbeam.decoder

    asked = []  # each allowed_tokens call's prefix, in call order
    finished_tied = 0  # _top_k calls that compared token tuples

    def recording_allowed_tokens(h, tries, cfg):
        asked.append(h.tokens)
        return allowed_tokens(h, tries, cfg)

    def counting_top_k(keys, k, n_done, tokens_of):
        nonlocal finished_tied
        compared = []
        kept = _top_k(keys, k, n_done, lambda i: compared.append(i) or tokens_of(i))
        assert not compared or min(compared) < n_done
        finished_tied += bool(compared)
        assert kept == sorted(kept)
        return kept

    monkeypatch.setattr(factbeam.decoder, "allowed_tokens", recording_allowed_tokens)
    monkeypatch.setattr(factbeam.decoder, "_top_k", counting_top_k)
    rng = random.Random(83)
    raised = tied = 0
    for case in range(420):
        cat = rand_catalog(rng, 4, 3, 1, 3)
        tries = make_tries(cat)
        kind = case % 4
        if kind == 0:
            scorer = CachingScorer(RandomScorer(rng.randrange(1 << 30), V))
        elif kind == 1:
            scorer = UniformScorer(V)
        elif kind == 2:
            scorer = _tied_table_scorer(rng, cat)
        else:
            corpus = [
                TOK.encode("ctx") + linearize(order_triplets(rand_triplet_set(rng, cat, 2)), cat, TOK)
                for _ in range(5)
            ]
            scorer = train_ngram(corpus, n=rng.randint(1, 4), tokenizer=TOK)
        cfg = DecodeConfig(
            beam_size=rng.randint(1, 12),
            max_len=rng.choice((2, 3, 5, 8, 13, 21, 34)),
            length_alpha=rng.choice((0.0, 0.5, 1.0)),
            allow_empty_set=rng.random() < 0.5,
            max_triplets=rng.choice((None, 1, 2)),
        )
        asked.clear()
        got, got_partial = _search(beam_search, "ctx", scorer, tries, cfg)
        assert asked == sorted(set(asked), key=lambda prefix: (len(prefix), prefix)), (case, cfg)
        want, want_partial = _search(ref_beam_search, "ctx", scorer, tries, cfg)
        assert got == want, (case, cfg)
        assert got_partial == want_partial, (case, cfg)
        if want is None:
            raised += 1
        else:
            scores = [h.score(cfg.length_alpha) for h in want]
            tied += len(scores) != len(set(scores))
    assert raised >= 40 and tied >= 40 and finished_tied > 0, (raised, tied, finished_tied)


def test_top_k_orders_a_tied_finished_hypothesis_by_tokens():
    """Index 0 is finished, the rest are live candidates in token order.
    At k=2 three entries tie at the k-th key and one slot is left: the
    finished (EOS,) sorts after (SUB, 9), so index order would be wrong."""
    seqs = [(EOS,), (SUB, 9), (SUB, 12), (SUB, 15)]
    keys = np.array([-2.0, -2.0, -1.0, -2.0])
    assert _top_k(keys, 2, 1, seqs.__getitem__) == [1, 2]
    assert _top_k(keys, 3, 1, seqs.__getitem__) == [1, 2, 3]
    assert _top_k(keys, 4, 1, seqs.__getitem__) == [0, 1, 2, 3]

    def never(i):
        raise AssertionError(f"tokens compared at {i} with no finished hypothesis tied")

    keys[0] = -5.0  # no finished hypothesis tied: live ties go by index
    assert _top_k(keys, 2, 1, never) == [1, 2]
    assert _top_k(np.array([-2.0, -1.0, -2.0, -2.0]), 3, 0, never) == [0, 1, 2]


class _NaNScorer:
    """Uniform, except NaN at one token."""

    vocab_size = V

    def __init__(self, token):
        self.row = np.full(V, -math.log(V))
        self.row[token] = np.nan

    def next_log_probs(self, context, prefixes):
        return np.broadcast_to(self.row, (len(prefixes), V))


def test_nan_score_at_allowed_token_raises():
    cfg = DecodeConfig(beam_size=2, max_len=8)
    with pytest.raises(InvalidScores, match=rf"step 0 for allowed token {EOS}"):
        beam_search("", _NaNScorer(EOS), TRIES, cfg)
    # NaN at a token the constraints never allow is dropped with its mass
    assert beam_search("", _NaNScorer(V - 1), TRIES, cfg)


class _ShapeScorer:
    vocab_size = V

    def __init__(self, shape, extra_row):
        self.shape = shape
        self.extra_row = extra_row

    def next_log_probs(self, context, prefixes):
        return np.zeros((len(prefixes) + self.extra_row, *self.shape))


@pytest.mark.parametrize("extra_row", [False, True])
@pytest.mark.parametrize("shape", [(V - 1,), (V + 1,), ()])
def test_wrong_score_shape_raises(shape, extra_row):
    with pytest.raises(InvalidScores, match="shape"):
        beam_search("", _ShapeScorer(shape, extra_row), TRIES, DecodeConfig(beam_size=2, max_len=8))


def test_wrong_row_count_raises():
    with pytest.raises(InvalidScores, match=rf"shape \(2, {V}\), expected \(1, {V}\)"):
        beam_search("", _ShapeScorer((V,), True), TRIES, DecodeConfig(beam_size=2, max_len=8))
