import hashlib
import json
import logging
import random
import re
import struct

import numpy as np
import pytest

from factbeam import (
    ByteTokenizer,
    Catalog,
    TokenTrie,
    Triplet,
    build_catalog,
    build_trie,
    load_catalog,
    load_trie,
    read_documents,
    read_prediction_sets,
    save_trie,
)
from factbeam.catalog import CatalogError
from factbeam.fileio import (
    TRIE_MAGIC,
    TrieFormatError,
    prediction_record,
    read_counts,
    read_jsonl,
    read_mentions,
    sha256_file,
    triplet_from_json,
    triplet_to_json,
    write_jsonl,
)
from factbeam.linearize import MentionedTriplet

from helpers import catalog_tsv, rand_names

TOK = ByteTokenizer()


def trie_of(names):
    return build_trie(list(enumerate(names)), TOK)


@pytest.fixture
def cat() -> Catalog:
    return build_catalog(["Paris", "Rome", "Tiber"], ["capital of", "crosses"])


# --- catalog TSV --------------------------------------------------------------


def load_entities(tmp_path, path) -> Catalog:
    """The catalog of the entity file at path and a one-name relation file."""
    rel = tmp_path / "rel.tsv"
    rel.write_text("0\tr\n", encoding="utf-8")
    return load_catalog(path, rel)


def test_catalog_rows_round_trip(tmp_path):
    names = ["Paris", "Rome", "naïve café"]
    path = tmp_path / "ent.tsv"
    path.write_text(catalog_tsv(names), encoding="utf-8")
    loaded = load_entities(tmp_path, path)
    assert loaded.entity_names == tuple(names)
    assert loaded.entity_ids == {"Paris": 0, "Rome": 1, "naïve café": 2}


def test_catalog_third_column_ignored(tmp_path):
    path = tmp_path / "ent.tsv"
    path.write_bytes(b"0\ta\tQ1\r\n1\tb\n")
    assert load_entities(tmp_path, path).entity_names == ("a", "b")


def test_catalog_rows_any_id_order(tmp_path):
    path = tmp_path / "ent.tsv"
    path.write_text("2\tc\n0\ta\n1\tb\n", encoding="utf-8")
    loaded = load_entities(tmp_path, path)
    assert loaded.entity_names == ("a", "b", "c")
    assert loaded.entity_ids == {"a": 0, "b": 1, "c": 2}


@pytest.mark.parametrize(
    "content,msg",
    [
        ("0\ta\tx\ty\n", "fields"),
        ("zero\ta\n", "non-integer id"),
        ("\u0661\ta\n", ":1: non-integer id '\u0661'"),  # ARABIC-INDIC DIGIT ONE
        ("0\ta\n+1\tb\n", ":2: non-integer id '\\+1'"),
        ("0\ta\n 1\tb\n", ":2: non-integer id ' 1'"),
        ("0_0\ta\n", ":1: non-integer id '0_0'"),
        ("0\ta\n0\tb\n", "duplicate id"),
        ("0\ta\n2\tb\n", "dense"),
        ("1\tb\n0\t \n", ":2: blank entity name at position 0"),
        ("0\ta\n\n1\ta\n", ":3: duplicate entity name: 'a'"),
    ],
)
def test_catalog_rows_malformed(tmp_path, content, msg):
    path = tmp_path / "bad.tsv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(CatalogError, match=msg) as exc:
        load_entities(tmp_path, path)
    assert str(exc.value).startswith(f"{path}:")


def test_catalog_carriage_return_refused(tmp_path):
    path = tmp_path / "crlf.tsv"
    path.write_bytes(b"0\tRome\r\n1\tTiber\r\n")
    with pytest.raises(CatalogError, match=re.escape(f"{path}:1: name 'Rome\\r' contains a carriage return")):
        load_entities(tmp_path, path)


def test_load_catalog(tmp_path, cat):
    (tmp_path / "e.tsv").write_text(catalog_tsv(cat.entity_names), encoding="utf-8")
    (tmp_path / "r.tsv").write_text(catalog_tsv(cat.relation_names), encoding="utf-8")
    loaded = load_catalog(tmp_path / "e.tsv", tmp_path / "r.tsv")
    assert loaded.entity_names == cat.entity_names
    assert loaded.relation_names == cat.relation_names


# --- counts TSV ------------------------------------------------------------------


def test_counts_round_trip(tmp_path, cat):
    path = tmp_path / "counts.tsv"
    path.write_text("crosses\t7\ncapital of\t042\n", encoding="utf-8")
    assert read_counts(path, cat) == {0: 42, 1: 7}


def test_counts_unknown_relation_skipped(tmp_path, cat, caplog):
    path = tmp_path / "counts.tsv"
    path.write_text("capital of\t3\nno such relation\t9\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="factbeam"):
        assert read_counts(path, cat) == {0: 3}
    assert f"{path}:2: relation 'no such relation' not in catalog, skipped" in caplog.text


@pytest.mark.parametrize(
    "content",
    ["capital of\t-1\n", "capital of\tmany\n", "capital of\t\uff15\n", "capital of\t 1_0 \n", "capital of\t\n"],
)
def test_counts_bad_values(tmp_path, cat, content):
    path = tmp_path / "counts.tsv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(CatalogError):
        read_counts(path, cat)


def test_counts_duplicate_relation_refused(tmp_path, cat):
    path = tmp_path / "counts.tsv"
    path.write_text("capital of\t3\ncapital of\t5\n", encoding="utf-8")
    with pytest.raises(CatalogError, match=f"{path}:2: duplicate relation 'capital of'"):
        read_counts(path, cat)


# --- triplet JSON ------------------------------------------------------------------


def test_triplet_json_round_trip(cat):
    mt = MentionedTriplet(Triplet(1, 0, 0), (0, 4), (10, 15))
    obj = triplet_to_json(mt, cat)
    assert obj == {
        "sub": "Rome",
        "rel": "capital of",
        "obj": "Paris",
        "sub_span": [0, 4],
        "obj_span": [10, 15],
    }
    assert triplet_from_json(obj, cat, "d") == mt


def test_triplet_json_spanless(cat):
    mt = MentionedTriplet(Triplet(2, 1, 1))
    obj = triplet_to_json(mt, cat)
    assert "sub_span" not in obj and "obj_span" not in obj
    assert triplet_from_json(obj, cat, "d") == mt


def test_triplet_json_unknown_name(cat):
    with pytest.raises(ValueError, match="not in catalog"):
        triplet_from_json({"sub": "Atlantis", "rel": "crosses", "obj": "Rome"}, cat, "d")


def test_triplet_json_missing_field(cat):
    with pytest.raises(ValueError, match="missing"):
        triplet_from_json({"sub": "Rome", "obj": "Paris"}, cat, "d")
    with pytest.raises(ValueError, match=re.escape("doc 'd': triplet 'rel' is a blank relation name")):
        triplet_from_json({"sub": "Rome", "rel": "\t", "obj": "Paris"}, cat, "d")


def test_triplet_json_bad_span(cat):
    for span in ([3], [0.9, True], ["2", 3.7], [0, 4.0], [False, 4], [0, None]):
        obj = {"sub": "Rome", "rel": "crosses", "obj": "Paris", "sub_span": span}
        with pytest.raises(ValueError, match=re.escape("doc 'd': span must be a [start, end] pair")):
            triplet_from_json(obj, cat, "d")


# --- documents / predictions JSONL ------------------------------------------------


def test_read_documents(tmp_path, cat):
    path = tmp_path / "docs.jsonl"
    write_jsonl(
        path,
        [
            {
                "id": "d1",
                "input": "Rome, capital of Italy, lies on the Tiber.",
                "triplets": [
                    {"sub": "Tiber", "rel": "crosses", "obj": "Rome", "sub_span": [36, 41]}
                ],
            },
            {"id": "d2", "input": "no facts here", "triplets": []},
        ],
    )
    docs = read_documents(path, cat)
    assert [d.doc_id for d in docs] == ["d1", "d2"]
    assert docs[0].triplet_set() == frozenset({Triplet(2, 1, 1)})
    assert docs[0].triplets[0].subject_span == (36, 41)
    assert docs[1].triplet_set() == frozenset()


def test_prediction_sets_from_candidates(tmp_path, cat):
    path = tmp_path / "pred.jsonl"
    write_jsonl(
        path,
        [
            {
                "id": "d1",
                "candidates": [
                    {"rank": 2, "triplets": [{"sub": "Rome", "rel": "crosses", "obj": "Tiber"}]},
                    {"rank": 1, "triplets": [{"sub": "Tiber", "rel": "crosses", "obj": "Rome"}]},
                ],
            },
            {"id": "d2", "candidates": []},
        ],
    )
    preds = read_prediction_sets(path, cat)
    assert preds["d1"] == frozenset({Triplet(2, 1, 1)})
    assert preds["d2"] == frozenset()


def test_prediction_records_read_back(tmp_path, cat):
    """The records `decode` writes, ranked and failed, read back as their
    rank-1 sets."""
    best = frozenset({Triplet(2, 1, 1), Triplet(0, 0, 1)})
    records = [
        prediction_record("d1", [(best, -1.5), (frozenset(), -2.0)], cat),
        prediction_record("d2", [], cat, "no sequence finished within max_len=8"),
    ]
    assert [t["sub"] for t in records[0]["candidates"][0]["triplets"]] == ["Paris", "Tiber"]  # id order
    assert records[1] == {"id": "d2", "candidates": [], "error": "no sequence finished within max_len=8"}
    path = tmp_path / "pred.jsonl"
    write_jsonl(path, records)
    assert read_prediction_sets(path, cat) == {"d1": best, "d2": frozenset()}


def test_prediction_sets_from_plain_records(tmp_path, cat):
    path = tmp_path / "pred.jsonl"
    write_jsonl(path, [{"id": "d1", "triplets": [{"sub": "Paris", "rel": "capital of", "obj": "Rome"}]}])
    assert read_prediction_sets(path, cat) == {"d1": frozenset({Triplet(0, 0, 1)})}


def test_read_mentions(tmp_path):
    path = tmp_path / "mentions.jsonl"
    write_jsonl(path, [{"id": "d1", "spans": [[0, 3], [7, 12]]}, {"id": "d2", "spans": []}])
    assert read_mentions(path) == {"d1": [(0, 3), (7, 12)], "d2": []}


@pytest.mark.parametrize("spans", [None, 5, "ab", {"s": [0, 3]}])
def test_read_mentions_bad_spans_value(tmp_path, spans):
    path = tmp_path / "mentions.jsonl"
    write_jsonl(path, [{"id": "d1", "spans": spans}])
    with pytest.raises(ValueError, match=r':1: "spans" must be a list of \[start, end\] pairs'):
        read_mentions(path)


def test_read_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"id": "b", "n": 1}\n\n{"id": 7, "n": 2}\n', encoding="utf-8")
    got = read_jsonl(path, lambda doc_id, record: (doc_id, record["n"]))
    # keyed by the id as a string, in file order
    assert list(got.items()) == [("b", ("b", 1)), ("7", ("7", 2))]


def test_read_jsonl_invalid_line(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"id": "a"}\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError, match=":2"):
        read_jsonl(path, lambda doc_id, record: record)


@pytest.mark.parametrize(
    "second, message",
    [
        ('{"id": "a"}', "duplicate id 'a'"),
        ('{"id": null}', 'record has no "id"'),
        ("{}", 'record has no "id"'),
        ('{"id": true}', '"id" must be a string or an integer'),
        ('{"id": [1]}', '"id" must be a string or an integer'),
        ('{"id": 1.5}', '"id" must be a string or an integer'),
        ('{"id": {"a": 1}}', '"id" must be a string or an integer'),
        ('{"id": "a\\udc80"}', """"id" holds the lone surrogate '\\udc80'"""),
    ],
)
def test_read_jsonl_refuses_duplicate_or_missing_id(tmp_path, second, message):
    path = tmp_path / "x.jsonl"
    path.write_text('{"id": "a"}\n' + second + "\n", encoding="utf-8")
    parsed = []
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
        read_jsonl(path, lambda doc_id, record: parsed.append(doc_id))
    assert parsed == ["a"]  # the bad record never reaches parse


# --- trie artifact -----------------------------------------------------------------


def test_trie_round_trip(tmp_path):
    trie = trie_of(["Rome", "Romeo", "Paris", "naïve"])
    path = tmp_path / "e.trie"
    save_trie(trie, path)
    assert load_trie(path) == trie


def test_trie_round_trip_random(tmp_path):
    rng = random.Random(11)
    for i in range(20):
        trie = trie_of(rand_names(rng, rng.randint(1, 40)))
        path = tmp_path / f"t{i}.trie"
        save_trie(trie, path)
        assert load_trie(path) == trie


def test_empty_trie_round_trip(tmp_path):
    path = tmp_path / "empty.trie"
    save_trie(trie_of([]), path)
    loaded = load_trie(path)
    assert len(loaded) == 0 and loaded.node_count == 1


def test_trie_bytes_deterministic(tmp_path):
    pairs = list(enumerate(rand_names(random.Random(5), 50)))
    a, b = tmp_path / "a.trie", tmp_path / "b.trie"
    save_trie(build_trie(pairs, TOK), a)
    save_trie(build_trie(list(reversed(pairs)), TOK), b)
    assert a.read_bytes() == b.read_bytes()
    # and a load/save cycle reproduces the same bytes
    save_trie(load_trie(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_trie_bad_magic(tmp_path):
    path = tmp_path / "old.trie"
    save_trie(trie_of(["Rome", "Paris"]), path)
    path.write_bytes(b"FBTRIE01" + path.read_bytes()[len(TRIE_MAGIC) :])
    with pytest.raises(TrieFormatError, match="not a trie artifact of this tool version"):
        load_trie(path)


def test_trie_truncated_header(tmp_path):
    path = tmp_path / "cut.trie"
    path.write_bytes(TRIE_MAGIC + b"\x00" * 32)
    with pytest.raises(TrieFormatError, match="truncated trie artifact header"):
        load_trie(path)


def test_trie_trailing_bytes(tmp_path):
    path = tmp_path / "padded.trie"
    save_trie(trie_of(["ab"]), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(TrieFormatError, match="trailing"):
        load_trie(path)


def test_trie_truncated(tmp_path):
    path = tmp_path / "cut.trie"
    save_trie(trie_of(["Rome", "Paris"]), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError):
        load_trie(path)


def _set(field, index, value):
    def mutate(arrays):
        arrays[field][index] = value(arrays) if callable(value) else value
    return mutate


@pytest.mark.parametrize(
    "mutate, match",
    [
        (_set("offsets", 0, 1), "edge offsets"),
        (_set("offsets", 1, lambda a: a["offsets"][2] + 1), "edge offsets"),  # decreases
        (_set("offsets", -1, lambda a: a["offsets"][-1] + 1), "edge offsets"),  # past n_edges
        # the root's edges move to node 1, which becomes its own child
        (_set("offsets", 1, 0), "child id below its parent"),
        (_set("tokens", 1, lambda a: a["tokens"][0]), "not strictly ascending"),  # repeated edge
        (_set("tokens", 0, lambda a: a["tokens"][1] + 1), "not strictly ascending"),
        (_set("terminal", 0, -2), "terminal ids"),
        (_set("terminal", 0, 0), "terminal ids"),  # id 0 already ends at another node
        (_set("tokens", -1, 0), "edge token 0 below the first content id"),  # a marker id
        (_set("tokens", -1, -3), "edge token -3 below the first content id"),
    ],
)
def test_trie_corrupt_arrays(tmp_path, mutate, match):
    trie = trie_of(["Rome", "Romeo", "Paris"])
    arrays = {f: np.array(getattr(trie, f)) for f in ("offsets", "tokens", "terminal")}
    mutate(arrays)
    path = tmp_path / "corrupt.trie"
    save_trie(TokenTrie(**arrays), path)
    with pytest.raises(TrieFormatError, match=match):
        load_trie(path)


@pytest.mark.parametrize(
    "delta_nodes, match",
    [(-100, "node count"), (1 << 31, "node count"), (1, "truncated trie"), (-1, "trailing bytes")],
)
def test_trie_bad_header_counts(tmp_path, delta_nodes, match):
    path = tmp_path / "bad.trie"
    save_trie(trie_of(["Rome", "Paris"]), path)
    data = bytearray(path.read_bytes())
    (n,) = struct.unpack_from("<q", data, len(TRIE_MAGIC))
    struct.pack_into("<q", data, len(TRIE_MAGIC), n + delta_nodes)
    path.write_bytes(bytes(data))
    with pytest.raises(TrieFormatError, match=match):
        load_trie(path)


def test_trie_header_carries_catalog_digest(tmp_path):
    path, catalog, other = tmp_path / "e.trie", tmp_path / "catalog.tsv", tmp_path / "other.tsv"
    catalog.write_bytes(b"any catalog file")
    other.write_bytes(b"another catalog file")
    trie = build_trie([(1, "Rome"), (0, "Paris")], TOK)
    save_trie(trie, path)  # no catalog: an all-zero digest
    assert path.read_bytes()[len(TRIE_MAGIC) + 8 : len(TRIE_MAGIC) + 40] == bytes(32)
    save_trie(trie, path, catalog)
    assert path.read_bytes()[len(TRIE_MAGIC) + 8 : len(TRIE_MAGIC) + 40] == hashlib.sha256(b"any catalog file").digest()
    assert load_trie(path) == load_trie(path, catalog) == trie
    with pytest.raises(TrieFormatError, match=re.escape(f"{path}: not built by factbeam build-trie from {other};")):
        load_trie(path, other)


def test_sha256_file(tmp_path):
    path = tmp_path / "blob"
    payload = b"factbeam" * 1000
    path.write_bytes(payload)
    assert sha256_file(path) == hashlib.sha256(payload).hexdigest()
