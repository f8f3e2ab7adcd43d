import math
import random

import numpy as np
import pytest

from factbeam import NGramScorer, RandomScorer, train_ngram
from factbeam.scorers import OracleScorer, UniformScorer
from factbeam.tokens import ByteTokenizer

from helpers import RefNGram

TOK = ByteTokenizer()
V = TOK.vocab_size


def row(scorer, context, prefix):
    """The scorer's row for one prefix."""
    return scorer.next_log_probs(context, [prefix])[0]


def assert_normalized(table, tol=1e-6):
    assert abs(float(np.exp(table).sum()) - 1.0) <= tol


# --- uniform ---------------------------------------------------------------


def test_uniform_values():
    s = UniformScorer(10)
    table = row(s, "", [])
    assert np.allclose(table, -math.log(10))
    assert_normalized(table)


def test_uniform_ignores_context_and_prefix():
    s = UniformScorer(V)
    assert np.array_equal(row(s, "a", [1, 2]), row(s, "b", []))


def test_uniform_rejects_empty_vocab():
    with pytest.raises(ValueError):
        UniformScorer(0)


# --- oracle ------------------------------------------------------------------


def test_oracle_along_target():
    target = [0, 7, 9, 4]
    s = OracleScorer(target, vocab_size=100)
    for i in range(len(target)):
        table = row(s, "", target[:i])
        assert table[target[i]] == pytest.approx(math.log(0.99))
        off = [t for t in range(100) if t != target[i]]
        assert np.allclose(table[off], math.log(0.01 / 99))
        assert_normalized(table)


def test_oracle_uniform_off_target_and_past_end():
    target = [0, 7, 9, 4]
    s = OracleScorer(target, vocab_size=50)
    assert np.allclose(row(s, "", [1]), -math.log(50))
    assert np.allclose(row(s, "", target), -math.log(50))


def test_oracle_validation():
    with pytest.raises(ValueError):
        OracleScorer([], vocab_size=10)
    with pytest.raises(ValueError):
        OracleScorer([11], vocab_size=10)


# --- random ----------------------------------------------------------------------


def test_random_deterministic_bitwise():
    a = RandomScorer(seed=5, vocab_size=V)
    b = RandomScorer(seed=5, vocab_size=V)
    t1 = row(a, "ctx", [1, 2, 3])
    t2 = row(b, "ctx", [1, 2, 3])
    assert np.array_equal(t1, t2)


def test_random_varies_with_inputs():
    s = RandomScorer(seed=5, vocab_size=V)
    base = row(s, "ctx", [1, 2])
    assert not np.array_equal(base, row(s, "ctx", [1, 3]))
    assert not np.array_equal(base, row(s, "other", [1, 2]))
    assert not np.array_equal(base, row(RandomScorer(6, V), "ctx", [1, 2]))


def test_random_rejects_seed_outside_int64():
    RandomScorer(seed=(1 << 63) - 1, vocab_size=V)
    RandomScorer(seed=-(1 << 63), vocab_size=V)
    for seed in (1 << 63, -(1 << 63) - 1, 1180591620717411303424):
        with pytest.raises(ValueError, match="signed 64-bit"):
            RandomScorer(seed=seed, vocab_size=V)


def test_random_normalized_under_fuzzing():
    rng = random.Random(0)
    s = RandomScorer(seed=1, vocab_size=V)
    for _ in range(100):
        prefix = [rng.randrange(V) for _ in range(rng.randint(0, 12))]
        assert_normalized(row(s, "x", prefix))


# --- ngram -----------------------------------------------------------------------


def test_ngram_smoothed_counts():
    # corpus: single sequence [10, 11, 10, 12]
    s = train_ngram([[10, 11, 10, 12]], n=2, tokenizer=TOK)
    table = row(s, "", [10])
    # history (10,): followed once by 11, once by 12 -> (1+1)/(2+V)
    assert table[11] == pytest.approx(math.log(2 / (2 + V)))
    assert table[12] == pytest.approx(math.log(2 / (2 + V)))
    assert table[99] == pytest.approx(math.log(1 / (2 + V)))
    assert_normalized(table)


def test_ngram_unseen_history_is_uniform():
    s = train_ngram([[10, 11]], n=3, tokenizer=TOK)
    table = row(s, "", [200, 201])
    assert np.allclose(table, -math.log(V))
    assert_normalized(table)


def test_ngram_order_one_is_prefix_independent():
    s = train_ngram([[10, 11, 11, 12]], n=1, tokenizer=TOK)
    a = row(s, "", [])
    b = row(s, "", [99, 100, 101])
    assert np.array_equal(a, b)
    assert a[11] == pytest.approx(math.log(3 / (4 + V)))  # 11 seen twice


def test_ngram_context_text_conditions_the_prefix():
    seq = TOK.encode("ab") + [5]
    s = train_ngram([seq], n=3, tokenizer=TOK)
    with_ctx = row(s, "ab", [])
    without = row(s, "", [])
    assert with_ctx[5] > without[5]  # trained continuation of "ab" is token 5


def test_ngram_short_history_uses_shorter_orders():
    s = train_ngram([[10, 11, 12]], n=3, tokenizer=TOK)
    table = row(s, "", [])  # empty history -> order-0 counts
    assert table[10] == pytest.approx(math.log(2 / (3 + V)))
    assert table[11] == pytest.approx(math.log(2 / (3 + V)))


def test_ngram_rejects_empty_corpus_and_bad_order():
    for make in (lambda: train_ngram([], n=2, tokenizer=TOK), lambda: NGramScorer(2, TOK, [])):
        with pytest.raises(ValueError, match="non-empty"):
            make()
    with pytest.raises(ValueError):
        NGramScorer(0, TOK, [[10]])
    # 7-token byte histories and the next token overflow int64; the bound is
    # found without computing 262 ** (n - 1)
    for n in (8, 10**6):
        with pytest.raises(ValueError, match=f"order {n} is too high for a 261-token vocabulary: at most 7$"):
            NGramScorer(n, TOK, [[10]])
    for bad in (999, -1):
        with pytest.raises(ValueError, match=f"token {bad} outside vocabulary"):
            train_ngram([[10, 11], [12, bad, 13]], n=2, tokenizer=TOK)


def test_ngram_determinism():
    corpus = [TOK.encode("hello world"), TOK.encode("hello there")]
    a = train_ngram(corpus, n=3, tokenizer=TOK)
    b = train_ngram(corpus, n=3, tokenizer=TOK)
    assert np.array_equal(
        row(a, "hello", [20, 30]), row(b, "hello", [20, 30])
    )


def test_all_scorers_normalized_everywhere():
    rng = random.Random(3)
    corpus = [[rng.randrange(V) for _ in range(10)] for _ in range(5)]
    scorers = [
        UniformScorer(V),
        OracleScorer([1, 2, 3], vocab_size=V),
        RandomScorer(0, V),
        train_ngram(corpus, n=3, tokenizer=TOK),
    ]
    for s in scorers:
        for _ in range(25):
            prefix = [rng.randrange(V) for _ in range(rng.randint(0, 8))]
            assert_normalized(row(s, "fuzz", prefix))


def test_every_scorer_row_is_independent_of_the_other_prefixes():
    rng = random.Random(5)
    target = [1, 2, 3, 4]
    corpus = [[rng.randrange(V) for _ in range(10)] for _ in range(5)]
    scorers = [
        UniformScorer(V),
        OracleScorer(target, vocab_size=V),
        RandomScorer(2, V),
        train_ngram(corpus, n=3, tokenizer=TOK),
    ]
    for s in scorers:
        assert s.next_log_probs("ctx", []).shape == (0, V)
        prefixes = [target[:i] for i in range(len(target) + 1)] + [[1], [7, 7], [9, 9, 9], []]
        prefixes += [[rng.randrange(V) for _ in range(rng.randint(0, 8))] for _ in range(10)]
        rng.shuffle(prefixes)
        rows = s.next_log_probs("ctx", prefixes)
        assert rows.shape == (len(prefixes), V)
        for prefix, one in zip(prefixes, rows):
            assert np.array_equal(one, row(s, "ctx", prefix)), (type(s).__name__, prefix)


def test_ngram_rows_equal_dict_count_reference():
    """Rows of one many-prefix call, one-prefix calls and the dict-count model
    agree bit for bit."""
    rng = random.Random(11)
    for n in range(1, 6):
        for _ in range(6):
            # marker ids and printable bytes, so that contexts can extend seen histories
            alphabet = rng.sample(range(5), 2) + rng.sample(range(5 + 97, 5 + 100), 3)
            corpus = [
                [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
                for _ in range(rng.randint(1, 6))
            ]
            model = train_ngram(corpus, n=n, tokenizer=TOK)
            ref = RefNGram(corpus, n, TOK)
            seen = [list(h) for h in ref.counts]
            queries = seen + [
                [],  # empty prefix
                [rng.choice(alphabet) for _ in range(n + 3)],  # longer than n - 1
                [200, 201, 202, 203][: n - 1] or [203],  # unseen history
                [V + 3, -1],  # ids outside the vocabulary are unseen histories too
            ]
            for context in ("", "a", "bca", "ab" * 5):
                rows = model.next_log_probs(context, queries)
                assert rows.shape == (len(queries), V)
                for prefix, one in zip(queries, rows):
                    expected = row(ref, context, prefix)
                    assert np.array_equal(one, expected), (n, context, prefix)
                    assert np.array_equal(row(model, context, prefix), one)


def test_ngram_corpus_of_empty_sequences_is_uniform():
    model = train_ngram([[], []], n=3, tokenizer=TOK)
    rows = model.next_log_probs("ab", [[], [10, 11]])
    assert np.array_equal(rows, np.full((2, V), 0.0 - math.log(V)))
