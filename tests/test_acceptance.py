"""Acceptance gate: one test per release criterion, each printing a
pass/fail line into the terminal summary.

The criteria are property-based (fuzzing plus small-oracle equivalence),
sized and budgeted so the whole gate runs on a laptop. Numbering is
stable; release requires all eight green.
"""

import itertools
import random
import time
from fractions import Fraction

import conftest

from factbeam import (
    ByteTokenizer,
    DecodeConfig,
    RandomScorer,
    Triplet,
    build_catalog,
    build_trie,
    decode,
    linearize,
    match,
    nel_rc_errors,
    order_triplets,
    parse,
    train_ngram,
)
from factbeam.attribution import edge_weight
from factbeam.decoder import NoCompleteHypothesis, beam_search
from factbeam.metrics import bucket_relations, macro_scores, micro_scores, per_relation_scores
from factbeam.scorers import UniformScorer

from helpers import (
    CachingScorer,
    all_valid_sequences,
    oracle_allowed_next,
    oracle_best_sequence,
    oracle_edge_weight,
    oracle_macro,
    oracle_match,
    oracle_micro,
    oracle_per_relation,
    rand_catalog,
    rand_eval_pairs,
    rand_triplet_set,
    walk,
    weights_one_to_six_pairs,
)

TOK = ByteTokenizer()


def report(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}"
    conftest.CRITERION_RESULTS.append(line)
    assert ok, line


def tries_for(cat):
    return (
        build_trie(enumerate(cat.entity_names), TOK),
        build_trie(enumerate(cat.relation_names), TOK),
    )


def test_criterion_1_grammar_validity_fuzz():
    """10,000 constrained decodes never emit an unparseable sequence."""
    rng = random.Random(20260815)
    catalogs = [
        (cat, tries_for(cat))
        for cat in (
            rand_catalog(rng, max_entities=100, max_relations=10, max_name=4)
            for _ in range(40)
        )
    ]
    n_decodes = 10_000
    invalid = no_complete = checked = 0
    start = time.perf_counter()
    for i in range(n_decodes):
        cat, tries = catalogs[i % len(catalogs)]
        scorer = (
            UniformScorer(TOK.vocab_size) if i % 10 == 9 else RandomScorer(i, TOK.vocab_size)
        )
        cfg = DecodeConfig(
            beam_size=1 + i % 3,
            max_len=48,
            allow_empty_set=(i % 4 != 3),
            max_triplets=None if i % 5 == 4 else 1 + i % 3,
        )
        try:
            finished = beam_search(f"doc {i}", scorer, tries, cfg)
        except NoCompleteHypothesis:
            no_complete += 1
            continue
        for hyp in finished:
            checked += 1
            if parse(list(hyp.tokens), cat, TOK).diagnostics:
                invalid += 1
    elapsed = time.perf_counter() - start
    # vacuity guard: the fuzz must actually produce sequences to check
    assert checked > 9_000
    report(
        1,
        "grammar validity fuzz",
        invalid == 0 and elapsed < 120,
        f"{n_decodes} decodes, {checked} sequences, {invalid} invalid, "
        f"{no_complete} beam dead-ends, {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_2_brute_force_argmax():
    """Beam top-1 equals exhaustive enumeration when the beam is wide enough."""
    rng = random.Random(77)
    mismatches = 0
    start = time.perf_counter()
    for i in range(100):
        if i % 10 < 7:
            cat = rand_catalog(rng, max_entities=5, max_relations=3, max_name=3)
            max_triplets = 1
        else:
            cat = rand_catalog(rng, max_entities=3, max_relations=2, max_name=2)
            max_triplets = 2
        max_len = 64
        sequences = all_valid_sequences(cat, TOK, max_triplets, max_len)
        scorer = CachingScorer(RandomScorer(1000 + i, TOK.vocab_size))
        text = f"instance {i}"
        want_seq, want_score = oracle_best_sequence(sequences, scorer, text)
        cfg = DecodeConfig(beam_size=len(sequences), max_len=max_len, max_triplets=max_triplets)
        top = beam_search(text, scorer, tries_for(cat), cfg)[0]
        same_set = (
            parse(list(top.tokens), cat, TOK).triplets == parse(list(want_seq), cat, TOK).triplets
        )
        if not same_set or abs(top.log_prob - want_score) > 1e-9:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        "brute-force argmax equivalence",
        mismatches == 0 and elapsed < 60,
        f"100 instances, {mismatches} mismatches, score tol 1e-9, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_3_linearization_round_trip():
    rng = random.Random(3)
    failures = 0
    start = time.perf_counter()
    for _ in range(10_000):
        cat = rand_catalog(rng, 30, 8)
        s = rand_triplet_set(rng, cat, 5)
        seq = linearize(order_triplets(sorted(s)), cat, TOK)
        shuffled = sorted(s)
        rng.shuffle(shuffled)
        if (
            parse(seq, cat, TOK).triplets != s
            or linearize(order_triplets(shuffled), cat, TOK) != seq
        ):
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        3,
        "linearization round trip",
        failures == 0 and elapsed < 30,
        f"10000 sets round-tripped, {failures} failures, "
        f"permutation-invariant, {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_4_trie_oracles():
    rng = random.Random(4)
    failures = 0
    start = time.perf_counter()
    for _ in range(1000):
        cat = rand_catalog(rng, 15, 5, max_name=5)
        names = cat.entity_names
        pairs = list(enumerate(names))
        trie = build_trie(pairs, TOK)
        total_tokens = sum(len(TOK.encode(n)) for n in names)
        if trie.node_count > total_tokens + 1:
            failures += 1
        prefixes: set[tuple[int, ...]] = {()}
        for name in names:
            enc = TOK.encode(name)
            prefixes.update(tuple(enc[:j]) for j in range(1, len(enc) + 1))
        for p in prefixes:
            node = walk(trie, p)
            got = (set(trie.children_of(node)), trie.terminal_id(node))
            if got != oracle_allowed_next(pairs, TOK, list(p)):
                failures += 1

        def member(s: str) -> bool:
            node = walk(trie, TOK.encode(s))
            return node is not None and trie.terminal_id(node) is not None

        name_set = set(names)
        for n in names:
            probes = (n, n + "x", n[:-1]) if len(n) > 1 else (n, n + "x")
            for probe in probes:
                if member(probe) != (probe in name_set):
                    failures += 1
    elapsed = time.perf_counter() - start
    report(
        4,
        "trie oracles",
        failures == 0,
        f"1000 catalogs: allowed-next, membership and node-count bound, "
        f"{failures} failures, {elapsed:.1f}s",
    )


def test_criterion_5_metric_oracles():
    rng = random.Random(5)
    tol = Fraction(1, 10**12)
    failures = 0
    start = time.perf_counter()
    for i in range(1000):
        cat = rand_catalog(rng, 10, 6)
        pairs = rand_eval_pairs(rng, cat, rng.randint(1, 6))
        mic = micro_scores(pairs)
        if any(
            abs(Fraction(got) - want) > tol
            for got, want in zip(tuple(mic), oracle_micro(pairs))
        ):
            failures += 1
        mac = macro_scores(pairs, cat)
        want_mac = oracle_macro(pairs)
        # macro f1 is the harmonic mean of macro p/r, not the mean of f1s
        want_f1 = (
            2 * want_mac[0] * want_mac[1] / (want_mac[0] + want_mac[1])
            if want_mac[0] + want_mac[1]
            else Fraction(0)
        )
        if (
            abs(Fraction(mac.p) - want_mac[0]) > tol
            or abs(Fraction(mac.r) - want_mac[1]) > tol
            or abs(Fraction(mac.f1) - want_f1) > tol
        ):
            failures += 1
        per = per_relation_scores(pairs, cat)
        want_per = oracle_per_relation(pairs)
        if set(per) != set(want_per) or any(
            abs(Fraction(got) - want) > tol
            for rel in per
            for got, want in zip((per[rel].p, per[rel].r, per[rel].f1), want_per[rel])
        ):
            failures += 1
        if i % 5 == 0:
            single = build_catalog([f"e{j}" for j in range(6)], ["only relation"])
            sp = rand_eval_pairs(rng, single, 4)
            if any(t.relation == 0 for p in sp for t in p.predicted | p.gold):
                m1, m2 = macro_scores(sp, single), micro_scores(sp)
                if (m1.p, m1.r) != (m2.p, m2.r):
                    failures += 1
    buckets_ok = {
        n: bucket_relations({0: n})[0] for n in (1, 2, 3, 63, 64, 2**20)
    } == {1: 0, 2: 1, 3: 1, 63: 5, 64: 6, 2**20: 20}
    elapsed = time.perf_counter() - start
    report(
        5,
        "metric oracles",
        failures == 0 and buckets_ok,
        f"1000 corpora vs rational oracle at 1e-12, {failures} failures, "
        f"bucket boundaries {'ok' if buckets_ok else 'WRONG'}, {elapsed:.1f}s",
    )


def test_criterion_6_attribution_oracles():
    start = time.perf_counter()
    universe = [
        Triplet(s, r, o) for s, r, o in itertools.product(range(3), range(2), range(3))
    ]
    weight_failures = sum(
        edge_weight(g, p) != oracle_edge_weight(g, p) for g in universe for p in universe
    )
    rng = random.Random(6)
    match_failures = 0
    for _ in range(1000):
        gold = frozenset(
            Triplet(rng.randrange(4), rng.randrange(3), rng.randrange(4))
            for _ in range(rng.randint(3, 6))
        )
        pred = frozenset(
            Triplet(rng.randrange(4), rng.randrange(3), rng.randrange(4))
            for _ in range(rng.randint(3, 6))
        )
        mine = {e.gold: (e.pred, e.weight) for e in match(gold, pred)}
        if mine != oracle_match(gold, pred):
            match_failures += 1
    nel, rc = nel_rc_errors(weights_one_to_six_pairs())
    fixture_ok = nel == 4 / 6 and rc == 3 / 6
    elapsed = time.perf_counter() - start
    report(
        6,
        "attribution oracles",
        weight_failures == 0 and match_failures == 0 and fixture_ok,
        f"{len(universe) ** 2} weight pairs exhaustive, 1000 matchings vs oracle "
        f"({match_failures} failures), weights-1..6 fixture nel/rc "
        f"{'== (4/6, 3/6)' if fixture_ok else 'WRONG'}, {elapsed:.1f}s",
    )


def test_criterion_7_scale_performance():
    def synthetic(n: int):
        return ((i, f"entity {i:07d}") for i in range(n))

    start = time.perf_counter()
    small = build_trie(synthetic(10_000), TOK)
    start_big = time.perf_counter()
    big = build_trie(synthetic(1_000_000), TOK)
    big_seconds = time.perf_counter() - start_big
    per_name_small = small.approx_bytes() / 10_000
    per_name_big = big.approx_bytes() / 1_000_000
    ratio = per_name_big / per_name_small
    elapsed = time.perf_counter() - start
    report(
        7,
        "scale/performance",
        big_seconds < 60 and 0.5 <= ratio <= 2.0,
        f"1e6-name build {big_seconds:.1f}s (budget 60s), per-name bytes "
        f"{per_name_big:.0f} vs {per_name_small:.0f} at 1e4 (ratio {ratio:.2f}, "
        f"bound 2.0), total {elapsed:.1f}s",
    )


def test_criterion_8_toy_regression():
    """A byte trigram trained on gold linearizations re-extracts the
    training facts under constrained decoding at k=10."""
    entities = [
        "alpha0", "bravo1", "cedar2", "delta3", "echo4",
        "fog5", "gulf6", "hotel7", "iris8", "jet9",
    ]
    relations = ["points at", "powers", "links to"]
    cat = build_catalog(entities, relations)
    tries = tries_for(cat)
    docs = [
        (f"record {i}: regarding {name}", Triplet(i, i % 3, (i + 1) % 10))
        for i, name in enumerate(entities)
    ]
    corpus = []
    for text, t in docs:
        seq = TOK.encode(text) + linearize(order_triplets([t]), cat, TOK)
        corpus.extend([seq] * 100)
    scorer = train_ngram(corpus, n=3, tokenizer=TOK)
    cfg = DecodeConfig(beam_size=10, max_len=64)
    start = time.perf_counter()
    recovered = 0
    for text, t in docs:
        ranked = decode(text, scorer, cat, tries, cfg, TOK)
        if any(t in ts for ts, _ in ranked):
            recovered += 1
    elapsed = time.perf_counter() - start
    rate = recovered / len(docs)
    report(
        8,
        "end-to-end toy regression",
        rate >= 0.9,
        f"trigram recovered {recovered}/{len(docs)} training triplets at k=10 "
        f"({rate:.0%}, threshold 90%), {elapsed:.2f}s",
    )
