import random
import tracemalloc

import pytest

from factbeam import build_catalog, build_trie, load_trie, save_trie
from factbeam.catalog import CatalogError, DuplicateName, EmptyName
from factbeam.tokens import ByteTokenizer

from helpers import oracle_allowed_next, rand_names, ref_build_trie, walk

TOK = ByteTokenizer()


def enc(text: str) -> list[int]:
    return TOK.encode(text)


def next_of(trie, prefix) -> tuple[set[int], int | None]:
    """Continuation tokens and completed catalog id after prefix."""
    node = walk(trie, prefix)
    return set(trie.children_of(node)), trie.terminal_id(node)


# --- build_catalog ----------------------------------------------------------


def test_dense_ids_in_input_order():
    cat = build_catalog(["Paris", "Rome"], ["capital of"])
    assert cat.entity_ids == {"Paris": 0, "Rome": 1}
    assert cat.relation_ids == {"capital of": 0}
    assert cat.entity_name(1) == "Rome"


def test_duplicate_entity_rejected():
    with pytest.raises(DuplicateName):
        build_catalog(["Paris", "Paris"], ["r"])


def test_duplicate_relation_rejected():
    with pytest.raises(DuplicateName):
        build_catalog(["e"], ["r", "r"])


def test_blank_name_rejected():
    with pytest.raises(EmptyName):
        build_catalog(["ok", "   "], ["r"])


def test_same_name_allowed_across_classes():
    cat = build_catalog(["x"], ["x"])
    assert cat.entity_ids["x"] == 0 and cat.relation_ids["x"] == 0


def test_unknown_id_lookup_raises():
    cat = build_catalog(["a"], ["r"])
    with pytest.raises(KeyError):
        cat.entity_name(1)
    with pytest.raises(KeyError):
        cat.relation_name(-1)


# --- build_trie ------------------------------------------------------------


def test_prefix_name_is_internal_terminal():
    trie = build_trie([(0, "Rome"), (1, "Romeo")], TOK)
    node = walk(trie, enc("Rome"))
    assert trie.terminal_id(node) == 0
    deeper = walk(trie, enc("Romeo"))
    assert trie.terminal_id(deeper) == 1
    assert set(trie.children_of(node)) == {enc("o")[0]}


def test_empty_trie():
    trie = build_trie([], TOK)
    assert len(trie) == 0
    assert next_of(trie, []) == (set(), None)


def test_identically_tokenizing_names_rejected():
    for name in ("same", "é€𝄞 x"):
        # a one-shot iterable: the refusal cannot look back at the input
        with pytest.raises(DuplicateName) as err:
            build_trie(enumerate(iter(["a", name, "b", name])), TOK)
        assert (err.value.name, err.value.kind) == (name, "trie")


@pytest.mark.parametrize(
    "pairs, problem",
    [
        ([(-5, "a")], "trie id -5 outside"),
        ([(2**31, "a")], f"trie id {2**31} outside"),
        ([(2**64, "a")], f"trie id {2**64} outside"),
        ([(0, "a"), (0, "b")], "repeated trie id 0"),
        ([(7, "a"), (3, "b"), (7, "c")], "repeated trie id 7"),
    ],
)
def test_ids_load_trie_refuses_are_refused(pairs, problem):
    with pytest.raises(CatalogError, match=problem) as err:
        build_trie(pairs, TOK)
    assert type(err.value) is CatalogError


def test_every_built_trie_round_trips(tmp_path):
    pairs = [(2**31 - 1, "top"), (0, "bottom"), (5, "é€𝄞")]
    trie = build_trie(pairs, TOK)
    save_trie(trie, tmp_path / "t.trie")
    loaded = load_trie(tmp_path / "t.trie")
    assert loaded == trie
    assert [loaded.terminal_id(walk(loaded, enc(name))) for _, name in pairs] == [2**31 - 1, 0, 5]


@pytest.mark.parametrize(
    "names, bound",
    [
        # bytes per input token, about 1.5x what the depth-by-depth build
        # peaks at (21.1 and 10.4); keeping every name string and the int64
        # degree pieces alive to the end peaked at 43.1 and 16.3
        pytest.param(lambda: rand_names(random.Random(0), 100_000), 31.0, id="random"),
        pytest.param(lambda: [f"entity {i:07d}" for i in range(100_000)], 15.5, id="shared-prefix"),
    ],
)
def test_build_peak_memory_per_token(names, bound):
    names = names()
    tokens = sum(len(enc(name)) for name in names)
    tracemalloc.start()
    try:
        build_trie(enumerate(names), TOK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / tokens < bound, f"{peak / tokens:.1f} B/token over {tokens} tokens"


def test_allowed_next_examples():
    trie = build_trie([(0, "Paris"), (1, "Parma")], TOK)
    conts, completed = next_of(trie, enc("Par"))
    assert conts == {enc("i")[0], enc("m")[0]}
    assert completed is None
    conts, completed = next_of(build_trie([(0, "Rome"), (1, "Romeo")], TOK), enc("Rome"))
    assert conts == {enc("o")[0]}
    assert completed == 0


def test_root_continuations_are_first_tokens():
    names = ["alpha", "beta", "bread"]
    trie = build_trie(list(enumerate(names)), TOK)
    conts, completed = next_of(trie, [])
    assert conts == {enc(n)[0] for n in names}
    assert completed is None


def test_build_determinism_and_structural_equality():
    names = list(enumerate(rand_names(random.Random(3), 50)))
    a = build_trie(names, TOK)
    b = build_trie(list(reversed(names)), TOK)
    assert a == b  # same name set, same structure, insert order irrelevant
    assert a == build_trie(names, TOK)


class _TupleTokenizer(ByteTokenizer):
    def encode(self, text: str) -> tuple[int, ...]:
        return tuple(super().encode(text))


def test_tokenizer_returning_tuples_is_refused():
    """`build_trie` fills its token buffer from `encode`'s list in one
    call, so an `encode` that breaks the Tokenizer contract is named."""
    names = list(enumerate(rand_names(random.Random(4), 50)))
    with pytest.raises(CatalogError, match="tokenizer encode returned tuple, not list") as err:
        build_trie(names, _TupleTokenizer())
    assert type(err.value) is CatalogError


def test_node_count_bound():
    rng = random.Random(11)
    for _ in range(50):
        names = rand_names(rng, rng.randint(1, 40))
        trie = build_trie(list(enumerate(names)), TOK)
        total_tokens = sum(len(enc(n)) for n in names)
        assert trie.node_count <= total_tokens + 1
        assert len(trie) == len(names)


@pytest.mark.parametrize("loaded", [False, True])
def test_trie_queries_return_plain_ints_in_order(tmp_path, loaded):
    # numpy scalars here would slow every decode step; see TokenTrie
    names = rand_names(random.Random(7), 60)
    trie = build_trie(list(enumerate(names)), TOK)
    if loaded:
        save_trie(trie, tmp_path / "t.trie")
        trie = load_trie(tmp_path / "t.trie")
    assert type(trie.__len__()) is int and len(trie) == len(names)
    for node in range(trie.node_count):
        tokens = list(trie.children_of(node))
        assert tokens == sorted(set(tokens))
        for token in tokens:
            assert type(token) is int and type(trie.child(node, token)) is int
        terminal = trie.terminal_id(node)
        assert terminal is None or type(terminal) is int


def test_allowed_next_matches_brute_force_everywhere():
    rng = random.Random(23)
    for _ in range(30):
        names = list(enumerate(rand_names(rng, rng.randint(1, 25), 1, 5)))
        trie = build_trie(names, TOK)
        prefixes = {()}
        for _, name in names:
            e = enc(name)
            prefixes.update(tuple(e[:i]) for i in range(len(e) + 1))
        for prefix in prefixes:
            expected = oracle_allowed_next(names, TOK, list(prefix))
            assert expected is not None
            assert next_of(trie, prefix) == expected


def layout_names(rng: random.Random) -> list[str]:
    """Distinct names with multi-byte UTF-8, names that are prefixes of
    others, sometimes the empty string; from none to about 60."""
    names = rand_names(rng, rng.choice([0, 1, rng.randint(2, 30)]), 1, 5, "ab é€𝄞")
    names += [n[: rng.randint(1, len(n))] for n in names if rng.random() < 0.5]
    if rng.random() < 0.2:
        names.append("")
    return sorted(set(names))


def test_level_order_layout_matches_preorder_reference():
    rng = random.Random(43)
    for _ in range(500):
        names = layout_names(rng)
        pairs = list(zip(rng.sample(range(1000), len(names)), names))
        trie, ref = build_trie(pairs, TOK), ref_build_trie(pairs, TOK)
        assert trie.node_count == len(ref.terminal) and len(trie) == len(names)
        prefixes = {tuple(enc(n)[:i]) for n in names for i in range(len(enc(n)) + 1)} | {()}
        for prefix in prefixes:
            node, ref_node = walk(trie, prefix), walk(ref, prefix)
            assert list(trie.children_of(node)) == ref.children_of(ref_node)
            assert trie.terminal_id(node) == (None if ref.terminal[ref_node] < 0 else ref.terminal[ref_node])
        depth = [0] * trie.node_count
        for node in range(trie.node_count):
            for edge in range(trie.offsets[node], trie.offsets[node + 1]):
                assert trie.child(node, trie.tokens[edge]) == edge + 1
                depth[edge + 1] = depth[node] + 1
        assert depth == sorted(depth)  # level order: depth never decreases with node id


def test_one_long_name_among_short_ones():
    rng = random.Random(47)
    names = rand_names(rng, 300, 1, 6) + ["x" * 5000 + "é", "x" * 4000]
    pairs = list(enumerate(sorted(set(names))))
    trie, ref = build_trie(pairs, TOK), ref_build_trie(pairs, TOK)
    assert trie.node_count == len(ref.terminal)
    for catalog_id, name in pairs:
        prefix = enc(name)
        assert trie.terminal_id(walk(trie, prefix)) == catalog_id
        assert list(trie.children_of(walk(trie, prefix[:4001]))) == ref.children_of(walk(ref, prefix[:4001]))


def test_membership_matches_hash_set():
    rng = random.Random(29)
    names = rand_names(rng, 200, 1, 5)
    member = set(names)
    trie = build_trie(list(enumerate(names)), TOK)
    probes = names + rand_names(rng, 300, 1, 6)
    for probe in probes:
        node = walk(trie, enc(probe))
        found = node is not None and trie.terminal_id(node) is not None
        assert found == (probe in member)

