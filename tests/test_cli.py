import copy
import json
import logging
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import factbeam
from factbeam import (
    ByteTokenizer,
    EvalPair,
    TokenTrie,
    Triplet,
    build_catalog,
    build_trie,
    load_trie,
    save_trie,
)
from factbeam.cli import build_parser, main
from factbeam.fileio import read_jsonl, sha256_file, write_jsonl
from factbeam.metrics import bucketed_f1

from helpers import catalog_tsv, word_names

ENTITIES = ["Paris", "Rome", "Tiber"]
RELATIONS = ["capital of", "crosses"]


@pytest.fixture
def catalog_files(tmp_path):
    ent = tmp_path / "entities.tsv"
    rel = tmp_path / "relations.tsv"
    ent.write_text(catalog_tsv(ENTITIES), encoding="utf-8")
    rel.write_text(catalog_tsv(RELATIONS), encoding="utf-8")
    return str(ent), str(rel)


def docs_file(tmp_path, name, records):
    path = tmp_path / name
    write_jsonl(path, records)
    return str(path)


GOLD_RECORDS = [
    {
        "id": "d1",
        "input": "The Tiber crosses Rome.",
        "triplets": [{"sub": "Tiber", "rel": "crosses", "obj": "Rome"}],
    },
    {
        "id": "d2",
        "input": "Paris is the capital of its country; Rome of another.",
        "triplets": [
            {"sub": "Paris", "rel": "capital of", "obj": "Rome"},
            {"sub": "Rome", "rel": "capital of", "obj": "Paris"},
        ],
    },
    {"id": "d3", "input": "Nothing extractable here.", "triplets": []},
]

# GOLD_RECORDS with a subject span on every triplet, as `attribute --mentions` needs
SPANNED_GOLD_RECORDS = [
    {**r, "triplets": [{**t, "sub_span": [0, 1]} for t in r["triplets"]]} for r in GOLD_RECORDS
]


def read_records(path):
    """The records of a JSONL file keyed by id."""
    return read_jsonl(path, lambda doc_id, record: record)


# --- build-trie ------------------------------------------------------------------


def test_build_trie_outputs(tmp_path, catalog_files):
    ent, rel = catalog_files
    # rows out of id order, so the file's bytes are not its sorted (id, name) lines
    rows = catalog_tsv(ENTITIES).splitlines(keepends=True)
    Path(ent).write_text("".join(reversed(rows)), encoding="utf-8")
    out = tmp_path / "tries"
    assert main(["build-trie", "--entities", ent, "--relations", rel, "--out-dir", str(out)]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["entity"]["names"] == len(ENTITIES)
    assert stats["relation"]["names"] == len(RELATIONS)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "factbeam"
    assert manifest["subcommand"] == "build-trie"
    assert manifest["inputs"]["entities"]["sha256"] == sha256_file(ent)
    tok = ByteTokenizer()
    for kind, label, names in (("entity", "entities", ENTITIES), ("relation", "relations", RELATIONS)):
        # the header binds each trie to the catalog file bytes the manifest records
        path, catalog = out / f"{kind}.trie", manifest["inputs"][label]["path"]
        assert path.read_bytes()[16:48].hex() == manifest["inputs"][label]["sha256"]
        assert load_trie(path, catalog) == build_trie(enumerate(names), tok)


def test_build_trie_reproducible(tmp_path, catalog_files):
    ent, rel = catalog_files
    for d in ("a", "b"):
        assert main(["build-trie", "--entities", ent, "--relations", rel, "--out-dir", str(tmp_path / d)]) == 0
    for name in ("entity.trie", "relation.trie", "stats.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# --- decode ----------------------------------------------------------------------


def run_decode(tmp_path, catalog_files, gold, extra):
    ent, rel = catalog_files
    out = tmp_path / "pred.jsonl"
    rc = main(
        ["decode", "--input", gold, "--entities", ent, "--relations", rel, "--out", str(out)]
        + extra
    )
    return rc, out


def test_decode_oracle_recovers_gold(tmp_path, catalog_files):
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    rc, out = run_decode(
        tmp_path, catalog_files, gold, ["--scorer", f"oracle:{gold}", "-k", "3"]
    )
    assert rc == 0
    by_id = read_records(out)
    for record in GOLD_RECORDS:
        top = min(by_id[record["id"]]["candidates"], key=lambda c: c["rank"])
        got = {(t["sub"], t["rel"], t["obj"]) for t in top["triplets"]}
        want = {(t["sub"], t["rel"], t["obj"]) for t in record["triplets"]}
        assert got == want
    manifest = json.loads((out.parent / "pred.jsonl.manifest.json").read_text())
    assert manifest["config"]["scorer"].startswith("oracle:")
    assert manifest["inputs"]["scorer_data"]["sha256"] == sha256_file(gold)


def test_decode_empty_input(tmp_path, catalog_files):
    gold = docs_file(tmp_path, "empty.jsonl", [])
    rc, out = run_decode(tmp_path, catalog_files, gold, ["--scorer", "uniform"])
    assert rc == 0
    assert read_records(out) == {}


def test_decode_with_prebuilt_tries_matches(tmp_path, catalog_files):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    tries = tmp_path / "tries"
    assert main(["build-trie", "--entities", ent, "--relations", rel, "--out-dir", str(tries)]) == 0
    rc1, out1 = run_decode(tmp_path, catalog_files, gold, ["--scorer", "uniform", "-k", "2"])
    direct = out1.read_bytes()
    out2 = tmp_path / "pred2.jsonl"
    rc2 = main(
        [
            "decode", "--input", gold, "--entities", ent, "--relations", rel,
            "--tries", str(tries), "--scorer", "uniform", "-k", "2", "--out", str(out2),
        ]
    )
    assert rc1 == rc2 == 0
    assert out2.read_bytes() == direct


def test_decode_bad_scorer_spec(tmp_path, catalog_files, capsys):
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    rc, out = run_decode(tmp_path, catalog_files, gold, ["--scorer", "gpt"])
    assert rc == 1
    assert "scorer spec" in capsys.readouterr().err
    assert not out.exists()


def assert_clean_failure(rc, capsys, out, message):
    err = capsys.readouterr().err
    assert rc == 1
    assert "factbeam: error:" in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


def not_built_from(trie, catalog):
    return f"{trie}: not built by factbeam build-trie from {catalog}; rebuild it with factbeam build-trie"


@pytest.mark.parametrize("names", [["Seine", "Oslo", "Bern"], ENTITIES[:2]])
def test_decode_tries_from_other_catalog(tmp_path, catalog_files, capsys, names):
    """Another catalog is refused as such, whether or not its name count
    differs too."""
    ent, rel = catalog_files
    other = tmp_path / "other_entities.tsv"
    other.write_text(catalog_tsv(names), encoding="utf-8")
    tries = tmp_path / "tries"
    assert main(["build-trie", "--entities", str(other), "--relations", rel, "--out-dir", str(tries)]) == 0
    docs = docs_file(tmp_path, "docs.jsonl", [{"id": "d1", "input": "The Seine."}])
    rc, out = run_decode(
        tmp_path, catalog_files, docs,
        ["--tries", str(tries), "--scorer", "uniform", "--no-empty-set"],
    )
    assert_clean_failure(rc, capsys, out, not_built_from(tries / "entity.trie", ent))


@pytest.mark.parametrize("flags, error", [
    (["--max-triplets", "0"], "dead end at step 0: no hypothesis could extend"),
    (["--max-len", "3"], "no sequence finished within max_len=3"),
])
def test_decode_failure_names_its_cause(tmp_path, catalog_files, flags, error):
    """A document the beam cannot finish gets a record with no candidates
    and the reason: a dead end names its step, a spent max_len its bound."""
    docs = docs_file(tmp_path, "docs.jsonl", [{"id": "d1", "input": "The Tiber."}])
    rc, out = run_decode(tmp_path, catalog_files, docs, ["--scorer", "uniform", "--no-empty-set", *flags])
    assert rc == 0
    assert read_records(out) == {"d1": {"id": "d1", "candidates": [], "error": error}}


def test_decode_tries_unbound(tmp_path, catalog_files, capsys):
    """An artifact saved from Python carries an all-zero digest, which
    no catalog file matches."""
    ent, rel = catalog_files
    tries = tmp_path / "tries"
    tries.mkdir()
    for kind, names in (("entity", ENTITIES), ("relation", RELATIONS)):
        save_trie(build_trie(enumerate(names), ByteTokenizer()), tries / f"{kind}.trie")
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    rc, out = run_decode(tmp_path, catalog_files, gold, ["--tries", str(tries), "--scorer", "uniform"])
    assert_clean_failure(rc, capsys, out, not_built_from(tries / "entity.trie", ent))


def test_decode_tries_catalog_rows_reordered(tmp_path, catalog_files, capsys):
    """The binding is the catalog file's bytes: the same (id, name) rows
    in another order are another catalog file."""
    ent, rel = catalog_files
    tries = tmp_path / "tries"
    assert main(["build-trie", "--entities", ent, "--relations", rel, "--out-dir", str(tries)]) == 0
    rows = Path(rel).read_text(encoding="utf-8").splitlines(keepends=True)
    Path(rel).write_text("".join(reversed(rows)), encoding="utf-8")
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    rc, out = run_decode(tmp_path, catalog_files, gold, ["--tries", str(tries), "--scorer", "uniform"])
    assert_clean_failure(rc, capsys, out, not_built_from(tries / "relation.trie", rel))


def test_decode_tries_previous_format(tmp_path, catalog_files, capsys):
    """An FBTRIE02 artifact (its header held a digest of the names) is
    refused as another version, whatever its digest."""
    ent, rel = catalog_files
    tries = tmp_path / "tries"
    assert main(["build-trie", "--entities", ent, "--relations", rel, "--out-dir", str(tries)]) == 0
    path = tries / "entity.trie"
    path.write_bytes(b"FBTRIE02" + path.read_bytes()[8:])
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    rc, out = run_decode(tmp_path, catalog_files, gold, ["--tries", str(tries), "--scorer", "uniform"])
    assert_clean_failure(
        rc, capsys, out, f"{path}: not a trie artifact of this tool version (expected header b'FBTRIE03')"
    )


def test_decode_tries_name_count_differs(tmp_path, catalog_files, capsys):
    """An artifact bound to the catalog file whose arrays end fewer names
    than the catalog has."""
    ent, rel = catalog_files
    tries = tmp_path / "tries"
    assert main(["build-trie", "--entities", ent, "--relations", rel, "--out-dir", str(tries)]) == 0
    path = tries / "entity.trie"
    trie = load_trie(path)
    terminal = np.array(trie.terminal)
    terminal[np.flatnonzero(terminal >= 0)[0]] = -1
    save_trie(TokenTrie(trie.offsets, trie.tokens, terminal), path, ent)
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    rc, out = run_decode(
        tmp_path, catalog_files, gold, ["--tries", str(tries), "--scorer", f"oracle:{gold}"]
    )
    assert_clean_failure(
        rc, capsys, out, f"{path}: trie holds 2 names, the entity catalog 3"
    )


@pytest.mark.parametrize("token", [261, 10**6])
def test_decode_tries_token_outside_vocabulary(tmp_path, catalog_files, capsys, token):
    ent, rel = catalog_files
    tries = tmp_path / "tries"
    assert main(["build-trie", "--entities", ent, "--relations", rel, "--out-dir", str(tries)]) == 0
    path = tries / "entity.trie"
    trie = load_trie(path)
    tokens = np.array(trie.tokens)
    tokens[-1] = token  # the last edge is its node's only one, so the order check passes
    save_trie(TokenTrie(trie.offsets, tokens, trie.terminal), path, ent)
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    rc, out = run_decode(tmp_path, catalog_files, gold, ["--tries", str(tries), "--scorer", "uniform"])
    assert_clean_failure(rc, capsys, out, f"{path}: edge token {token} outside the tokenizer's 261 ids")


def test_decode_tries_spell_names_outside_catalog(tmp_path, catalog_files, capsys):
    """Arrays that pass every structural check yet spell other names (the
    digest covers the catalog file, not the arrays) are refused, named by
    their directory, when a decoded name does not parse."""
    ent, rel = catalog_files
    tries = tmp_path / "tries"
    assert main(["build-trie", "--entities", ent, "--relations", rel, "--out-dir", str(tries)]) == 0
    trie = load_trie(tries / "entity.trie")
    save_trie(TokenTrie(trie.offsets, np.array(trie.tokens) + 1, trie.terminal), tries / "entity.trie", ent)
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    rc, out = run_decode(
        tmp_path, catalog_files, gold, ["--tries", str(tries), "--scorer", "uniform", "--no-empty-set"]
    )
    assert_clean_failure(rc, capsys, out, f"{tries}: decoded sequence does not parse against the catalog")


def test_decode_non_object_line(tmp_path, catalog_files, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"id": "d1", "input": "x"}\n[1, 2]\n', encoding="utf-8")
    rc, out = run_decode(tmp_path, catalog_files, str(docs), ["--scorer", "uniform"])
    assert_clean_failure(rc, capsys, out, f"{docs}:2: expected a JSON object")


@pytest.mark.parametrize(
    "text, message",
    [(5, '"input" must be a string'), ("x\ud800y", """"input" holds the lone surrogate '\\ud800'""")],
)
@pytest.mark.parametrize(
    "bad_file, scorer", [("input", "uniform"), ("input", "random"), ("input", "ngram"), ("scorer", "ngram")]
)
def test_decode_non_string_input(tmp_path, catalog_files, capsys, bad_file, scorer, text, message):
    good = docs_file(tmp_path, "good.jsonl", GOLD_RECORDS)
    bad = tmp_path / "bad.jsonl"  # json.dumps escapes the surrogate that write_jsonl cannot write
    bad.write_text(f'{json.dumps(GOLD_RECORDS[0])}\n{json.dumps({"id": "a", "input": text})}\n', encoding="utf-8")
    docs, scorer_data = (str(bad), good) if bad_file == "input" else (good, bad)
    spec = f"ngram:{scorer_data}" if scorer == "ngram" else scorer
    rc, out = run_decode(tmp_path, catalog_files, docs, ["--scorer", spec])
    assert_clean_failure(rc, capsys, out, f"{bad}:2: {message}")


def test_decode_missing_input_defaults_to_empty(tmp_path, catalog_files):
    docs = docs_file(tmp_path, "docs.jsonl", [{"id": "a"}])
    rc, out = run_decode(tmp_path, catalog_files, docs, ["--scorer", f"ngram:{docs}"])
    assert rc == 0
    assert list(read_records(out)) == ["a"]


DEEP = "[" * 100_000 + "]" * 100_000


def test_decode_deeply_nested_record(tmp_path, catalog_files, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"id": "d1", "input": "x"}\n{"id": "d2", "input": ' + DEEP + "}\n", encoding="utf-8")
    rc, out = run_decode(tmp_path, catalog_files, str(docs), ["--scorer", "uniform"])
    assert_clean_failure(rc, capsys, out, f"{docs}:2: invalid JSON: nested too deeply")


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_decode_non_finite_length_alpha(tmp_path, catalog_files, capsys, alpha):
    docs = docs_file(tmp_path, "docs.jsonl", GOLD_RECORDS)
    rc, out = run_decode(tmp_path, catalog_files, docs, ["--scorer", "uniform", f"--length-alpha={alpha}"])
    assert_clean_failure(rc, capsys, out, "length_alpha must be finite and >= 0")


def test_decode_random_seed_outside_int64(tmp_path, catalog_files, capsys):
    docs = docs_file(tmp_path, "docs.jsonl", GOLD_RECORDS)
    seed = str(1 << 70)
    rc, out = run_decode(tmp_path, catalog_files, docs, ["--scorer", "random", "--seed", seed])
    assert_clean_failure(rc, capsys, out, f"seed {seed} does not fit in a signed 64-bit integer")


@pytest.mark.parametrize("scorer", ["uniform", "random", "oracle"])
def test_decode_ngram_order_requires_ngram_scorer(tmp_path, catalog_files, capsys, scorer):
    docs = docs_file(tmp_path, "docs.jsonl", GOLD_RECORDS)
    spec = f"oracle:{docs}" if scorer == "oracle" else scorer
    rc, out = run_decode(tmp_path, catalog_files, docs, ["--scorer", spec, "--ngram-order", "9"])
    assert_clean_failure(rc, capsys, out, "--ngram-order needs --scorer ngram:FILE")


@pytest.mark.parametrize("kind", ["documents", "entities", "counts"])
def test_invalid_utf8_reported_with_file_and_line(tmp_path, catalog_files, capsys, kind):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    bad = tmp_path / f"bad_{kind}"
    first = {
        "documents": b'{"id": "d0", "input": "x"}\n',
        "entities": b"0\tParis\n",
        "counts": b"crosses\t4\n",
    }[kind]
    bad.write_bytes(first + b"1\tR\xffme\n")
    if kind == "documents":
        rc, out = run_decode(tmp_path, catalog_files, str(bad), ["--scorer", "uniform"])
    elif kind == "entities":
        out = tmp_path / "tries"
        rc = main(["build-trie", "--entities", str(bad), "--relations", rel, "--out-dir", str(out)])
    else:
        out = tmp_path / "report.json"
        rc = main(
            ["evaluate", "--gold", gold, "--pred", gold, "--entities", ent, "--relations", rel,
             "--counts", str(bad), "--out", str(out)]
        )
    assert_clean_failure(rc, capsys, out, f"{bad}:2: invalid UTF-8")


# --- evaluate ---------------------------------------------------------------------


def test_evaluate_perfect_predictions(tmp_path, catalog_files):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    out = tmp_path / "report.json"
    rc = main(
        ["evaluate", "--gold", gold, "--pred", gold, "--entities", ent, "--relations", rel, "--out", str(out)]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["n_documents"] == 3
    assert report["micro"]["f1"] == 1.0
    assert report["macro"]["f1"] == 1.0
    assert set(report["per_relation"]) == {"capital of", "crosses"}
    assert report["per_relation"]["crosses"]["support"] == 1


def test_evaluate_partial_predictions(tmp_path, catalog_files):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    pred_records = [
        {"id": "d1", "triplets": [{"sub": "Tiber", "rel": "crosses", "obj": "Rome"}]},
        {"id": "d2", "triplets": [{"sub": "Paris", "rel": "capital of", "obj": "Rome"}]},
        {"id": "d3", "triplets": []},
    ]
    pred = docs_file(tmp_path, "pred.jsonl", pred_records)
    out = tmp_path / "report.json"
    assert main(
        ["evaluate", "--gold", gold, "--pred", pred, "--entities", ent, "--relations", rel, "--out", str(out)]
    ) == 0
    report = json.loads(out.read_text())
    # 2 correct of 2 predicted, of 3 gold
    assert report["micro"]["p"] == 1.0
    assert report["micro"]["r"] == pytest.approx(2 / 3)


def test_evaluate_bootstrap_degenerate(tmp_path, catalog_files):
    ent, rel = catalog_files
    # only docs with nonempty gold: a resample of empty-gold docs scores 0
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS[:2])
    out = tmp_path / "report.json"
    assert main(
        [
            "evaluate", "--gold", gold, "--pred", gold, "--entities", ent,
            "--relations", rel, "--bootstrap", "50", "--out", str(out),
        ]
    ) == 0
    boot = json.loads(out.read_text())["bootstrap"]
    assert boot["B"] == 50
    assert boot["micro_f1"] == [1.0, 1.0]


def test_evaluate_missing_pred_doc_counts_as_empty(tmp_path, catalog_files):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    pred = docs_file(tmp_path, "pred.jsonl", [GOLD_RECORDS[0]])
    out = tmp_path / "report.json"
    assert main(
        ["evaluate", "--gold", gold, "--pred", pred, "--entities", ent, "--relations", rel, "--out", str(out)]
    ) == 0
    report = json.loads(out.read_text())
    assert report["micro"]["r"] == pytest.approx(1 / 3)


def counts_file(tmp_path):
    path = tmp_path / "counts.tsv"
    path.write_text("capital of\t3\ncrosses\t64\n", encoding="utf-8")
    return str(path)


def test_evaluate_warns_of_predictions_absent_from_gold(tmp_path, catalog_files, caplog):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS[:2])
    pred = docs_file(tmp_path, "pred.jsonl", GOLD_RECORDS)
    with caplog.at_level(logging.WARNING, logger="factbeam"):
        assert main(
            ["evaluate", "--gold", gold, "--pred", pred, "--entities", ent, "--relations", rel,
             "--out", str(tmp_path / "report.json")]
        ) == 0
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("factbeam", "WARNING", f"{pred}: 1 predicted document(s) absent from gold, ignored")
    ]


def test_evaluate_bootstrap_without_gold_documents_warns(tmp_path, catalog_files, caplog):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", [])
    out = tmp_path / "report.json"
    with caplog.at_level(logging.WARNING, logger="factbeam"):
        assert main(
            ["evaluate", "--gold", gold, "--pred", gold, "--entities", ent, "--relations", rel,
             "--bootstrap", "20", "--out", str(out)]
        ) == 0
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("factbeam", "WARNING", f"{gold}: no gold documents, bootstrap skipped")
    ]
    assert "bootstrap" not in json.loads(out.read_text())


@pytest.mark.parametrize("flags, message", [
    (["--bootstrap", "-3"], "--bootstrap must be >= 0, got -3"),
    (["--bootstrap", "10", "--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_evaluate_refuses_negative_bootstrap_flags(tmp_path, catalog_files, capsys, flags, message):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    out = tmp_path / "report.json"
    rc = main(["evaluate", "--gold", gold, "--pred", gold, "--entities", ent, "--relations", rel,
               *flags, "--out", str(out)])
    assert_clean_failure(rc, capsys, out, message)


def expected_bucket_rows():
    cat = build_catalog(ENTITIES, RELATIONS)
    pairs = [
        EvalPair("d1", frozenset({Triplet(2, 1, 1)}), frozenset({Triplet(2, 1, 1)})),
        EvalPair(
            "d2",
            frozenset({Triplet(0, 0, 1)}),
            frozenset({Triplet(0, 0, 1), Triplet(1, 0, 0)}),
        ),
        EvalPair("d3", frozenset(), frozenset()),
    ]
    counts = {0: 3, 1: 64}
    return bucketed_f1(pairs, counts)


def test_buckets_table(tmp_path, catalog_files):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    pred_records = [
        {"id": "d1", "triplets": [{"sub": "Tiber", "rel": "crosses", "obj": "Rome"}]},
        {"id": "d2", "triplets": [{"sub": "Paris", "rel": "capital of", "obj": "Rome"}]},
        {"id": "d3", "triplets": []},
    ]
    pred = docs_file(tmp_path, "pred.jsonl", pred_records)
    out = tmp_path / "buckets.tsv"
    assert main(
        [
            "evaluate", "--gold", gold, "--pred", pred, "--entities", ent,
            "--relations", rel, "--counts", counts_file(tmp_path), "--bucket-table", str(out),
            "--out", str(tmp_path / "report.json"),
        ]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "bucket\tcount_low\tcount_high\tf1\tn_relations"
    table = {}
    for line in lines[1:]:
        bucket, low, high, f1, n = line.split("\t")
        table[int(bucket)] = (float(f1), int(n))
    expected = expected_bucket_rows()
    assert set(table) == set(expected)
    for bucket, (f1, n) in expected.items():
        assert table[bucket][0] == pytest.approx(f1, abs=1e-6)
        assert table[bucket][1] == n


def test_evaluate_with_buckets_flag(tmp_path, catalog_files):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    out = tmp_path / "report.json"
    assert main(
        [
            "evaluate", "--gold", gold, "--pred", gold, "--entities", ent,
            "--relations", rel, "--counts", counts_file(tmp_path),
            "--out", str(out),
        ]
    ) == 0
    assert (tmp_path / "report.buckets.tsv").exists()


def test_buckets_subcommand_removed(tmp_path, catalog_files, capsys):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    with pytest.raises(SystemExit) as exc:
        main(
            ["buckets", "--gold", gold, "--pred", gold, "--entities", ent, "--relations", rel,
             "--counts", counts_file(tmp_path), "--out", str(tmp_path / "buckets.tsv")]
        )
    assert exc.value.code == 2
    assert "invalid choice: 'buckets'" in capsys.readouterr().err


# --- attribute -----------------------------------------------------------------------


def test_attribute_report(tmp_path, catalog_files):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS[:2])
    pred_records = [
        {"id": "d1", "triplets": [{"sub": "Tiber", "rel": "crosses", "obj": "Rome"}]},
        {
            "id": "d2",
            "triplets": [
                {"sub": "Paris", "rel": "capital of", "obj": "Tiber"},  # weight 2
                {"sub": "Rome", "rel": "crosses", "obj": "Paris"},  # weight 3
            ],
        },
    ]
    pred = docs_file(tmp_path, "pred.jsonl", pred_records)
    out = tmp_path / "attr.json"
    assert main(["attribute", "--gold", gold, "--pred", pred, "--entities", ent, "--relations", rel, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    # weights: d1 -> 1; d2 -> 2 and 3
    assert report["n_gold_triplets"] == 3
    assert report["nel_error"] == pytest.approx(1 / 3)
    assert report["rc_error"] == pytest.approx(1 / 3)
    assert report["overall_recall_error"] == pytest.approx(2 / 3)


def test_attribute_without_catalog_files(tmp_path):
    gold = docs_file(
        tmp_path,
        "gold.jsonl",
        [{"id": "d", "input": "", "triplets": [{"sub": "X", "rel": "made", "obj": "Y"}]}],
    )
    pred = docs_file(
        tmp_path,
        "pred.jsonl",
        [{"id": "d", "triplets": [{"sub": "X", "rel": "made", "obj": "Z"}]}],
    )
    out = tmp_path / "attr.json"
    assert main(["attribute", "--gold", gold, "--pred", pred, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["nel_error"] == 1.0
    assert report["rc_error"] == 0.0


def attribute_reports(tmp_path, gold, pred, catalog):
    """`attribute`'s report without catalog files and with `catalog`'s."""
    reports = []
    for flags in ([], ["--entities", catalog[0], "--relations", catalog[1]]):
        out = tmp_path / "attr.json"
        assert main(["attribute", "--gold", gold, "--pred", pred, *flags, "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    return reports


def test_attribute_ids_follow_first_appearance(tmp_path):
    """Without catalog files a name's id is its order of first appearance
    (gold, then each prediction's rank-1 set; sub before obj), and ids
    matter: greedy matching breaks weight ties by id."""
    ent, rel = tmp_path / "ent.tsv", tmp_path / "rel.tsv"
    ent.write_text(catalog_tsv(list("ABQWYX")), encoding="utf-8")
    rel.write_text(catalog_tsv(list("rst")), encoding="utf-8")
    t = lambda sub, rel, obj: {"sub": sub, "rel": rel, "obj": obj}
    gold = docs_file(tmp_path, "gold.jsonl", [{"id": "d", "triplets": [t("A", "r", "B"), t("Q", "s", "W")]}])
    # first appearance numbers X 4 and Y 5, the catalog Y 4 and X 5
    pred = docs_file(tmp_path, "pred.jsonl", [{"id": "d", "triplets": [t("X", "s", "B"), t("Y", "t", "B")]}])
    implicit, catalog = attribute_reports(tmp_path, gold, pred, (str(ent), str(rel)))
    common = {"n_gold_triplets": 2, "nel_error": 1.0, "overall_recall_error": 1.0}
    assert implicit == {**common, "rc_error": 1.0}
    assert catalog == {**common, "rc_error": 0.5}


def test_attribute_without_catalog_reads_gold_triplets(tmp_path, catalog_files):
    """A gold record is read by its "triplets" even when it also has
    "candidates", with catalog files or without them."""
    tiber = GOLD_RECORDS[0]["triplets"]
    gold = docs_file(tmp_path, "gold_c.jsonl", [{**GOLD_RECORDS[1], "candidates": [{"rank": 1, "triplets": tiber}]}])
    pred = docs_file(tmp_path, "pred.jsonl", [{"id": "d2", "triplets": tiber}])
    implicit, catalog = attribute_reports(tmp_path, gold, pred, catalog_files)
    assert implicit == catalog and implicit["n_gold_triplets"] == 2


def test_attribute_with_mentions(tmp_path, catalog_files):
    ent, rel = catalog_files
    gold = docs_file(
        tmp_path,
        "gold.jsonl",
        [
            {
                "id": "d1",
                "input": "The Tiber crosses Rome.",
                "triplets": [
                    {
                        "sub": "Tiber", "rel": "crosses", "obj": "Rome",
                        "sub_span": [4, 9], "obj_span": [18, 22],
                    }
                ],
            }
        ],
    )
    mentions = docs_file(tmp_path, "mentions.jsonl", [{"id": "d1", "spans": [[4, 9], [18, 22]]}])
    out = tmp_path / "attr.json"
    assert main(
        ["attribute", "--gold", gold, "--pred", gold, "--entities", ent, "--relations", rel,
         "--mentions", mentions, "--out", str(out)]
    ) == 0
    report = json.loads(out.read_text())
    assert report["ner_exact"] == 0.0


def test_attribute_mode_requires_mentions(tmp_path, capsys):
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    out = tmp_path / "attr.json"
    rc = main(["attribute", "--gold", gold, "--pred", gold, "--mode", "partial", "--out", str(out)])
    assert_clean_failure(rc, capsys, out, "--mode needs --mentions")


def test_attribute_warns_of_mentions_absent_from_gold(tmp_path, caplog):
    gold = docs_file(tmp_path, "gold.jsonl", SPANNED_GOLD_RECORDS[:1])
    mentions = docs_file(
        tmp_path, "mentions.jsonl", [{"id": "d1", "spans": [[0, 1]]}, {"id": "d9", "spans": []}]
    )
    with caplog.at_level(logging.WARNING, logger="factbeam"):
        assert main(
            ["attribute", "--gold", gold, "--pred", gold, "--mentions", mentions, "--out", str(tmp_path / "a.json")]
        ) == 0
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("factbeam", "WARNING", f"{mentions}: 1 mentioned document(s) absent from gold, ignored")
    ]


@pytest.mark.parametrize("given", ["--entities", "--relations"])
def test_attribute_catalog_flags_go_together(tmp_path, capsys, given):
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    out = tmp_path / "attr.json"
    rc = main(["attribute", "--gold", gold, "--pred", gold, given, str(tmp_path / "nope.tsv"), "--out", str(out)])
    assert_clean_failure(rc, capsys, out, "--entities and --relations go together")


@pytest.mark.parametrize("catalog", [True, False])
def test_attribute_mentions_refuses_gold_without_spans(tmp_path, catalog_files, capsys, catalog):
    gold = docs_file(tmp_path, "gold.jsonl", [SPANNED_GOLD_RECORDS[0], *GOLD_RECORDS[1:]])
    mentions = docs_file(tmp_path, "mentions.jsonl", [{"id": "d1", "spans": [[0, 1]]}])
    ent, rel = catalog_files
    out = tmp_path / "attr.json"
    rc = main(
        ["attribute", "--gold", gold, "--pred", gold, "--mentions", mentions, "--out", str(out)]
        + (["--entities", ent, "--relations", rel] if catalog else [])
    )
    assert_clean_failure(
        rc, capsys, out,
        f"{gold}:2: doc 'd2': gold triplet ('Paris', 'capital of', 'Rome') carries no mention spans",
    )


# --- failure handling ----------------------------------------------------------------


def test_missing_input_file_exit_code(tmp_path, catalog_files, capsys):
    ent, rel = catalog_files
    rc = main(
        ["evaluate", "--gold", str(tmp_path / "nope.jsonl"), "--pred", str(tmp_path / "nope.jsonl"),
         "--entities", ent, "--relations", rel, "--out", str(tmp_path / "r.json")]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind",
    ["gold", "pred", "mentions", "decode:input", "decode:oracle", "decode:ngram",
     "evaluate:gold", "evaluate:pred", "implicit:gold", "implicit:pred"],
)
@pytest.mark.parametrize(
    "defect, record, message",
    [
        ("duplicate", {"id": "d1"}, "duplicate id 'd1'"),
        ("missing", {"input": "no id"}, 'record has no "id"'),
        ("not a string", {"id": True}, '"id" must be a string or an integer'),
        ("lone surrogate", {"id": "d\udc80"}, """"id" holds the lone surrogate '\\udc80'"""),
    ],
)
def test_duplicate_or_missing_id(tmp_path, catalog_files, capsys, kind, defect, record, message):
    """Every JSONL input refuses a repeated, missing or mistyped id, or one
    no UTF-8 output could hold, at its line: gold, pred and mentions under
    `attribute` with catalog files, the `decode` input and scorer data,
    `evaluate`'s gold and pred, and `attribute`'s gold and pred without
    catalog files."""
    ent, rel = catalog_files
    files = {
        "gold": docs_file(tmp_path, "gold.jsonl", SPANNED_GOLD_RECORDS),
        "pred": docs_file(tmp_path, "pred.jsonl", GOLD_RECORDS),
        "mentions": docs_file(tmp_path, "mentions.jsonl", [{"id": "d1", "spans": []}]),
    }
    command, _, name = kind.rpartition(":")
    # decode reads the pred file as its input and the gold file as scorer data
    bad = Path(files[{"input": "pred", "oracle": "gold", "ngram": "gold"}.get(name, name)])
    bad.write_text(bad.read_text(encoding="utf-8") + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    line = len(bad.read_text(encoding="utf-8").splitlines())
    gold, pred = files["gold"], files["pred"]
    catalog = ["--entities", ent, "--relations", rel]
    scorer = {"input": "uniform", "oracle": f"oracle:{gold}", "ngram": f"ngram:{gold}"}.get(name)
    argv = {
        "": ["attribute", "--gold", gold, "--pred", pred, *catalog, "--mentions", files["mentions"]],
        "decode": ["decode", "--input", pred, *catalog, "--scorer", scorer],
        "evaluate": ["evaluate", "--gold", gold, "--pred", pred, *catalog],
        "implicit": ["attribute", "--gold", gold, "--pred", pred],
    }[command]
    out = tmp_path / "attr.json"
    rc = main(argv + ["--out", str(out)])
    assert_clean_failure(rc, capsys, out, f"{bad}:{line}: {message}")


@pytest.mark.parametrize("candidate", [{"triplets": []}, {"rank": "1", "triplets": []}, {"rank": 1}])
def test_candidate_without_integer_rank(tmp_path, catalog_files, capsys, candidate):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    pred = docs_file(
        tmp_path, "pred.jsonl",
        [{"id": "d1", "candidates": [{"rank": 1, "triplets": []}]}, {"id": "d2", "candidates": [candidate]}],
    )
    out = tmp_path / "report.json"
    rc = main(
        ["evaluate", "--gold", gold, "--pred", pred, "--entities", ent, "--relations", rel, "--out", str(out)]
    )
    assert_clean_failure(rc, capsys, out, f'{pred}:2: "candidates" must be objects with an integer "rank" and a "triplets" list')


@pytest.mark.parametrize("gold_first", [True, False])
def test_candidates_sharing_a_rank_are_refused(tmp_path, catalog_files, capsys, gold_first):
    """Two candidates at rank 1 leave the rank-1 set undefined: whichever
    the file lists first would be scored, so the record is refused."""
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS[:1])
    candidates = [{"rank": 1, "triplets": GOLD_RECORDS[0]["triplets"]}, {"rank": 1, "triplets": []}]
    if not gold_first:
        candidates.reverse()
    pred = docs_file(tmp_path, "pred.jsonl", [{"id": "d1", "candidates": [*candidates, {"rank": 2, "triplets": []}]}])
    out = tmp_path / "report.json"
    rc = main(
        ["evaluate", "--gold", gold, "--pred", pred, "--entities", ent, "--relations", rel, "--out", str(out)]
    )
    assert_clean_failure(rc, capsys, out, f"{pred}:1: duplicate rank 1")


@pytest.mark.parametrize("gold_first", [True, False])
@pytest.mark.parametrize("ranks, bad", [((7, -3), -3), ((1, 3), 3), ((0, 1), 0)])
def test_candidate_ranks_outside_one_to_n_are_refused(tmp_path, catalog_files, capsys, gold_first, ranks, bad):
    """`decode` ranks its n candidates 1..n; any other rank would leave
    the lowest-ranked set scored as rank 1, so the record is refused."""
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS[:1])
    candidates = [{"rank": ranks[0], "triplets": GOLD_RECORDS[0]["triplets"]}, {"rank": ranks[1], "triplets": []}]
    if not gold_first:
        candidates.reverse()
    pred = docs_file(tmp_path, "pred.jsonl", [{"id": "d1", "candidates": candidates}])
    out = tmp_path / "report.json"
    rc = main(
        ["evaluate", "--gold", gold, "--pred", pred, "--entities", ent, "--relations", rel, "--out", str(out)]
    )
    assert_clean_failure(rc, capsys, out, f"{pred}:1: rank {bad} outside 1..2")


def test_evaluate_deeply_nested_prediction(tmp_path, catalog_files, capsys):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    pred = tmp_path / "pred.jsonl"
    pred.write_text('{"id": "d1", "triplets": []}\n{"id": "d2", "triplets": ' + DEEP + "}\n", encoding="utf-8")
    out = tmp_path / "report.json"
    rc = main(
        ["evaluate", "--gold", gold, "--pred", str(pred), "--entities", ent, "--relations", rel, "--out", str(out)]
    )
    assert_clean_failure(rc, capsys, out, f"{pred}:2: invalid JSON: nested too deeply")


BAD_TRIPLETS = '"triplets" must be a list of triplet objects'


BAD_TRIPLET_RECORDS = [
    ({"id": "d4", "triplets": [1]}, BAD_TRIPLETS),
    ({"id": "d4", "triplets": {"sub": "Rome"}}, BAD_TRIPLETS),
    ({"id": "d4", "triplets": [{"sub": "Rome", "obj": "Paris"}]}, "doc 'd4': triplet missing 'rel'"),
    ({"id": "d4", "triplets": [{"sub": "Atlantis", "rel": "crosses", "obj": "Rome"}]},
     "doc 'd4': entity 'Atlantis' not in catalog"),
    ({"id": "d4", "triplets": [{"sub": "Rome", "rel": "crosses", "obj": "Paris", "sub_span": [[0], 4]}]},
     "doc 'd4': span must be a [start, end] pair"),
]


@pytest.mark.parametrize(
    "kind, record, message",
    [(kind, *case) for kind in ("gold", "pred") for case in BAD_TRIPLET_RECORDS]
    + [("pred", {"id": "d4", "candidates": [{"rank": 1, "triplets": ["Rome"]}]},
        '"candidates[].triplets" must be a list of triplet objects')]
    + [
        (kind, {"id": "d4", "triplets": [{"sub": "Rome", "rel": "crosses", "obj": "Paris", "sub_span": span}]},
         "doc 'd4': span must be a [start, end] pair")
        for kind in ("gold", "pred") for span in ([0.9, True], ["2", 3.7])
    ],
)
def test_bad_triplet_entries(tmp_path, catalog_files, capsys, kind, record, message):
    ent, rel = catalog_files
    files = {
        "gold": docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS),
        "pred": docs_file(tmp_path, "pred.jsonl", GOLD_RECORDS),
    }
    bad = tmp_path / f"{kind}.jsonl"
    bad.write_text(bad.read_text(encoding="utf-8") + json.dumps(record) + "\n", encoding="utf-8")
    out = tmp_path / "report.json"
    rc = main(
        ["evaluate", "--gold", files["gold"], "--pred", files["pred"], "--entities", ent,
         "--relations", rel, "--out", str(out)]
    )
    assert_clean_failure(rc, capsys, out, f"{bad}:4: {message}")


@pytest.mark.parametrize("triplets", [[1], "Rome"])
def test_attribute_without_catalog_bad_triplets(tmp_path, capsys, triplets):
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    pred = docs_file(tmp_path, "pred.jsonl", [{"id": "d1", "triplets": triplets}])
    out = tmp_path / "attr.json"
    rc = main(["attribute", "--gold", gold, "--pred", pred, "--out", str(out)])
    assert_clean_failure(rc, capsys, out, f"{pred}:1: {BAD_TRIPLETS}")


@pytest.mark.parametrize("with_catalog", [False, True])
@pytest.mark.parametrize("key, kind", [("sub", "entity"), ("rel", "relation"), ("obj", "entity")])
def test_attribute_blank_name(tmp_path, catalog_files, capsys, with_catalog, key, kind):
    """A blank name is refused by its triplet key, whether or not catalog
    files number the names."""
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    blank = {"sub": "Tiber", "rel": "crosses", "obj": "Rome", key: " "}
    pred = docs_file(tmp_path, "pred.jsonl", [{"id": "d1", "triplets": []}, {"id": "d2", "triplets": [blank]}])
    out = tmp_path / "attr.json"
    ent, rel = catalog_files
    catalog = ["--entities", ent, "--relations", rel] if with_catalog else []
    rc = main(["attribute", "--gold", gold, "--pred", pred, "--out", str(out)] + catalog)
    assert_clean_failure(rc, capsys, out, f"{pred}:2: doc 'd2': triplet '{key}' is a blank {kind} name")


@pytest.mark.parametrize("subcommand", ["build-trie", "decode", "evaluate", "attribute"])
@pytest.mark.parametrize(
    "rows, message",
    [
        ("0\tParis\n1\tRome\n2\tParis\n", ":3: duplicate entity name: 'Paris'"),
        ("0\tParis\n\n1\t  \n", ":3: blank entity name at position 1"),
    ],
)
def test_catalog_name_errors_located(tmp_path, capsys, subcommand, rows, message):
    ent = tmp_path / "entities.tsv"
    ent.write_text(rows, encoding="utf-8")
    rel = tmp_path / "relations.tsv"
    rel.write_text(catalog_tsv(RELATIONS), encoding="utf-8")
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    out = tmp_path / "out"
    rest = {
        "build-trie": ["--out-dir", str(out)],
        "decode": ["--input", gold, "--scorer", "uniform", "--out", str(out)],
        "evaluate": ["--gold", gold, "--pred", gold, "--out", str(out)],
        "attribute": ["--gold", gold, "--pred", gold, "--out", str(out)],
    }[subcommand]
    rc = main([subcommand, "--entities", str(ent), "--relations", str(rel)] + rest)
    assert_clean_failure(rc, capsys, out, f"{ent}{message}")


def test_bucket_table_requires_counts(tmp_path, catalog_files, capsys):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    out = tmp_path / "report.json"
    table = tmp_path / "buckets.tsv"
    rc = main(
        ["evaluate", "--gold", gold, "--pred", gold, "--entities", ent, "--relations", rel,
         "--bucket-table", str(table), "--out", str(out)]
    )
    assert_clean_failure(rc, capsys, out, "--bucket-table needs --counts")
    assert not table.exists()


def test_partial_outputs_removed_on_failure(tmp_path, catalog_files, capsys):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    out = tmp_path / "report.json"
    rc = main(
        [
            "evaluate", "--gold", gold, "--pred", gold, "--entities", ent,
            "--relations", rel, "--counts", counts_file(tmp_path),
            "--bucket-table", str(tmp_path / "no_such_dir" / "buckets.tsv"),
            "--out", str(out),
        ]
    )
    assert rc == 1
    capsys.readouterr()
    # the report was written before the bucket table failed; it must be gone
    assert not out.exists()


def test_failed_run_keeps_previous_outputs(tmp_path, catalog_files, capsys):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    out = tmp_path / "report.json"
    out.write_bytes(b'{"previous": "report"}\n')
    rc = main(
        [
            "evaluate", "--gold", gold, "--pred", gold, "--entities", ent,
            "--relations", rel, "--counts", counts_file(tmp_path),
            "--bucket-table", str(tmp_path / "no_such_dir" / "buckets.tsv"),
            "--out", str(out),
        ]
    )
    assert rc == 1
    assert "factbeam: error:" in capsys.readouterr().err
    assert out.read_bytes() == b'{"previous": "report"}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["entities.tsv", "relations.tsv", "gold.jsonl", "counts.tsv", "report.json"]
    )


def test_decode_failing_document_keeps_previous_output(tmp_path, catalog_files, capsys):
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    oracle = docs_file(tmp_path, "oracle.jsonl", GOLD_RECORDS[:1])
    out = tmp_path / "pred.jsonl"
    out.write_bytes(b'{"previous": "predictions"}\n')
    rc, _ = run_decode(tmp_path, catalog_files, gold, ["--scorer", f"oracle:{oracle}"])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"factbeam: error: {oracle}: no record for document 'd2'" in err
    assert out.read_bytes() == b'{"previous": "predictions"}\n'
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("name", ["pred.jsonl", "pred[1]*.jsonl"])
def test_run_removes_temps_of_killed_runs(tmp_path, catalog_files, name):
    """Staging an output deletes the temp files beside it whose process
    is gone, as a run killed before its cleanup leaves them; a temp of a
    running process, or one not named by a pid, stays."""
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped, so no process has its pid
    dead, running, not_pid = (tmp_path / f".{name}.{pid}.tmp" for pid in (child.pid, os.getppid(), "x1"))
    for temp in (dead, running, not_pid):
        temp.write_bytes(b"partial output")
    out = tmp_path / name
    assert main(["decode", "--input", gold, "--entities", ent, "--relations", rel,
                 "--scorer", "uniform", "--out", str(out)]) == 0
    assert out.exists()
    assert not dead.exists()
    assert running.exists() and not_pid.exists()


def test_attribute_bad_spans_value(tmp_path, catalog_files, capsys):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", SPANNED_GOLD_RECORDS)
    mentions = docs_file(tmp_path, "mentions.jsonl", [{"id": "d1", "spans": None}])
    out = tmp_path / "attr.json"
    rc = main(
        ["attribute", "--gold", gold, "--pred", gold, "--entities", ent, "--relations", rel,
         "--mentions", mentions, "--out", str(out)]
    )
    assert_clean_failure(
        rc, capsys, out, f'{mentions}:1: "spans" must be a list of [start, end] pairs'
    )


@pytest.mark.parametrize("span", [[5, 0], [-3, -1], [4, 4]])
@pytest.mark.parametrize("where", ["gold", "mentions"])
def test_attribute_refuses_invalid_span(tmp_path, catalog_files, capsys, where, span):
    """A predicted mention span is held to the gold span rule, and refused
    with the same message."""
    ent, rel = catalog_files
    gold_records = copy.deepcopy(SPANNED_GOLD_RECORDS)
    mention_spans = [[0, 1]]
    if where == "gold":
        gold_records[0]["triplets"][0]["sub_span"] = span
    else:
        mention_spans.append(span)
    gold = docs_file(tmp_path, "gold.jsonl", gold_records)
    mentions = docs_file(tmp_path, "mentions.jsonl", [{"id": "d1", "spans": mention_spans}])
    out = tmp_path / "attr.json"
    rc = main(
        ["attribute", "--gold", gold, "--pred", gold, "--entities", ent, "--relations", rel,
         "--mentions", mentions, "--out", str(out)]
    )
    path = gold if where == "gold" else mentions
    assert_clean_failure(rc, capsys, out, f"{path}:1: invalid mention span {tuple(span)}")


def test_attribute_overflowing_span(tmp_path, catalog_files, capsys):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", SPANNED_GOLD_RECORDS)
    mentions = tmp_path / "mentions.jsonl"
    mentions.write_text('{"id": "d1", "spans": [[0, Infinity]]}\n', encoding="utf-8")
    out = tmp_path / "attr.json"
    rc = main(
        ["attribute", "--gold", gold, "--pred", gold, "--entities", ent, "--relations", rel,
         "--mentions", str(mentions), "--out", str(out)]
    )
    assert_clean_failure(rc, capsys, out, f"{mentions}:1: doc 'd1': span must be a [start, end] pair")


def test_evaluate_overflowing_span(tmp_path, catalog_files, capsys):
    ent, rel = catalog_files
    gold = tmp_path / "gold.jsonl"
    gold.write_text(
        '{"id": "d1", "input": "x", "triplets": '
        '[{"sub": "Tiber", "rel": "crosses", "obj": "Rome", "sub_span": [1e999, 5]}]}\n',
        encoding="utf-8",
    )
    out = tmp_path / "report.json"
    rc = main(
        ["evaluate", "--gold", str(gold), "--pred", str(gold), "--entities", ent,
         "--relations", rel, "--out", str(out)]
    )
    assert_clean_failure(rc, capsys, out, f"{gold}:1: doc 'd1': span must be a [start, end] pair")


def test_evaluate_counts_duplicate_relation(tmp_path, catalog_files, capsys):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    counts = tmp_path / "counts.tsv"
    counts.write_text("capital of\t3\ncapital of\t5\n", encoding="utf-8")
    out = tmp_path / "report.json"
    rc = main(
        ["evaluate", "--gold", gold, "--pred", gold, "--entities", ent, "--relations", rel,
         "--counts", str(counts), "--out", str(out)]
    )
    assert_clean_failure(rc, capsys, out, f"{counts}:2: duplicate relation 'capital of'")


def test_two_outputs_one_path_refused(tmp_path, catalog_files, capsys):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    out = tmp_path / "report.json"
    out.write_bytes(b'{"previous": "report"}\n')
    rc = main(
        ["evaluate", "--gold", gold, "--pred", gold, "--entities", ent, "--relations", rel,
         "--out", str(out), "--manifest-out", str(tmp_path / "." / "report.json")]
    )
    assert rc == 1
    assert "named for two outputs" in capsys.readouterr().err
    assert out.read_bytes() == b'{"previous": "report"}\n'
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_manifest_out_override(tmp_path, catalog_files):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    manifest = tmp_path / "custom_manifest.json"
    out = tmp_path / "report.json"
    assert main(
        ["evaluate", "--gold", gold, "--pred", gold, "--entities", ent, "--relations", rel,
         "--out", str(out), "--manifest-out", str(manifest), "--seed", "7"]
    ) == 0
    record = json.loads(manifest.read_text())
    assert record["seed"] == 7
    assert not (tmp_path / "report.json.manifest.json").exists()


@pytest.mark.parametrize("subcommand", ["build-trie", "decode", "evaluate", "attribute"])
def test_manifest_records_flags_and_inputs(tmp_path, catalog_files, subcommand):
    """With every optional input given, each file the run read is in
    `inputs` with its hash, and `config` is the flags as parsed."""
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    pred = docs_file(tmp_path, "pred.jsonl", GOLD_RECORDS[:2])
    train = docs_file(tmp_path, "train.jsonl", GOLD_RECORDS[1:])
    spanned_triplet = {**GOLD_RECORDS[0]["triplets"][0], "sub_span": [4, 9], "obj_span": [18, 22]}
    spanned = docs_file(tmp_path, "spanned.jsonl", [{**GOLD_RECORDS[0], "triplets": [spanned_triplet]}])
    mentions = docs_file(tmp_path, "mentions.jsonl", [{"id": "d1", "spans": [[4, 9]]}])
    counts = counts_file(tmp_path)
    tries = tmp_path / "tries"
    assert main(["build-trie", "--entities", ent, "--relations", rel, "--out-dir", str(tries)]) == 0
    out = str(tmp_path / "out")
    rest, read = {
        "build-trie": (["--out-dir", str(tmp_path / "built")], {}),
        "decode": (
            ["--input", gold, "--tries", str(tries), "--scorer", f"ngram:{train}", "-k", "2", "--out", out],
            {"input": gold, "entity_trie": tries / "entity.trie",
             "relation_trie": tries / "relation.trie", "scorer_data": train},
        ),
        "evaluate": (
            ["--gold", gold, "--pred", pred, "--counts", counts, "--bucket-table", str(tmp_path / "b.tsv"),
             "--bootstrap", "5", "--out", out],
            {"gold": gold, "pred": pred, "counts": counts},
        ),
        "attribute": (
            ["--gold", spanned, "--pred", pred, "--mentions", mentions, "--mode", "partial", "--out", out],
            {"gold": spanned, "pred": pred, "mentions": mentions},
        ),
    }[subcommand]
    manifest_path = tmp_path / "manifest.json"
    argv = [subcommand, "--entities", ent, "--relations", rel, *rest,
            "--seed", "3", "--manifest-out", str(manifest_path)]
    assert main(argv) == 0
    manifest = json.loads(manifest_path.read_text())
    read.update(entities=ent, relations=rel)
    assert manifest["inputs"] == {
        label: {"path": str(path), "sha256": sha256_file(path)} for label, path in read.items()
    }
    flags = vars(build_parser().parse_args(argv))
    del flags["func"]
    assert manifest["config"] == flags
    assert (manifest["subcommand"], manifest["seed"]) == (subcommand, 3)
    assert manifest["seconds"] > 0


@pytest.mark.parametrize(
    "case", ["build-trie", "decode-oracle", "decode-ngram", "evaluate", "attribute", "attribute-implicit"]
)
def test_each_text_input_parsed_once(tmp_path, catalog_files, monkeypatch, case):
    """With every optional input given as its own file, a run hands each
    text input it reads to the one line reader exactly once."""
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", SPANNED_GOLD_RECORDS)
    pred = docs_file(tmp_path, "pred.jsonl", GOLD_RECORDS[:2])
    scorer_data = docs_file(tmp_path, "scorer.jsonl", GOLD_RECORDS)
    mentions = docs_file(tmp_path, "mentions.jsonl", [{"id": "d1", "spans": [[4, 9]]}])
    counts = counts_file(tmp_path)
    tries = tmp_path / "tries"
    assert main(["build-trie", "--entities", ent, "--relations", rel, "--out-dir", str(tries)]) == 0
    catalog = ["--entities", ent, "--relations", rel]
    out = ["--out", str(tmp_path / "out")]
    decode = ["decode", "--input", pred, *catalog, "--tries", str(tries), "-k", "2", *out]
    argv, expected = {
        "build-trie": (["build-trie", *catalog, "--out-dir", str(tmp_path / "built")], [ent, rel]),
        "decode-oracle": ([*decode, "--scorer", f"oracle:{scorer_data}"], [pred, ent, rel, scorer_data]),
        "decode-ngram": ([*decode, "--scorer", f"ngram:{scorer_data}"], [pred, ent, rel, scorer_data]),
        "evaluate": (
            ["evaluate", "--gold", gold, "--pred", pred, *catalog, "--counts", counts, *out],
            [gold, pred, ent, rel, counts],
        ),
        "attribute": (
            ["attribute", "--gold", gold, "--pred", pred, *catalog, "--mentions", mentions, *out],
            [gold, pred, ent, rel, mentions],
        ),
        "attribute-implicit": (
            ["attribute", "--gold", gold, "--pred", pred, "--mentions", mentions, *out], [gold, pred, mentions]
        ),
    }[case]
    parsed = []
    read_lines = factbeam.fileio._read_lines

    def recording(path, parse_line):
        parsed.append(Path(path).resolve())
        return read_lines(path, parse_line)

    monkeypatch.setattr(factbeam.fileio, "_read_lines", recording)
    assert main(argv) == 0
    assert sorted(parsed) == sorted(Path(path).resolve() for path in expected)


def cli_process_env() -> dict[str, str]:
    """The environment in which `python -m factbeam.cli` imports this package."""
    src = Path(factbeam.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("case", ["bad-catalog-row", "version"])
def test_cli_as_a_process(tmp_path, case):
    """`python -m factbeam.cli`: a bad input is one error line and exit 1, no traceback."""
    env = cli_process_env()
    ent = tmp_path / "entities.tsv"
    ent.write_text("0\tParis\n1\tRome\n2\tParis\n", encoding="utf-8")
    rel = tmp_path / "relations.tsv"
    rel.write_text(catalog_tsv(RELATIONS), encoding="utf-8")
    argv = {
        "bad-catalog-row": ["build-trie", "--entities", str(ent), "--relations", str(rel),
                            "--out-dir", str(tmp_path / "tries")],
        "version": ["--version"],
    }[case]
    proc = subprocess.run(
        [sys.executable, "-m", "factbeam.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    if case == "version":
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"factbeam {factbeam.__version__}\n", "")
    else:
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines() == [f"factbeam: error: {ent}:3: duplicate entity name: 'Paris'"]
        assert not (tmp_path / "tries").exists()


@pytest.mark.skipif(shutil.which("factbeam") is None, reason="console script not on PATH")
def test_console_script_version():
    proc = subprocess.run(["factbeam", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "factbeam" in proc.stdout


# --- mutated inputs -------------------------------------------------------------------

SWAP_VALUES = [None, True, 0, -1, 2**70, 1.5, float("nan"), float("inf"), "", "Rome", [], {}, [1, 2], {"sub": 1}]
TSV_FIELDS = ["", " ", "x", "-1", "1.5", "99999999999999999999", "0", "Rome"]
INT32_VALUES = [-(2**31), -3, -1, 0, 4, 5, 261, 10**6, 2**31 - 1]


def _swapped(value, rng):
    """value with one value inside it replaced by one of another type."""
    if isinstance(value, (dict, list)) and value and rng.random() < 0.7:
        key = rng.choice(list(value)) if isinstance(value, dict) else rng.randrange(len(value))
        value[key] = _swapped(value[key], rng)
        return value
    return copy.deepcopy(rng.choice([v for v in SWAP_VALUES if type(v) is not type(value)]))


def _type_swap(data: bytes, kind: str, rng) -> bytes:
    if kind == "trie":  # overwrite one int32 of the arrays after the 48-byte header
        at = 48 + 4 * rng.randrange((len(data) - 48) // 4)
        return data[:at] + rng.choice(INT32_VALUES).to_bytes(4, "little", signed=True) + data[at + 4 :]
    lines = data.decode("utf-8").split("\n")
    i = rng.randrange(len(lines) - 1)
    if kind == "tsv":
        fields = lines[i].split("\t")
        fields[rng.randrange(len(fields))] = rng.choice(TSV_FIELDS)
        lines[i] = "\t".join(fields)
    else:
        lines[i] = json.dumps(_swapped(json.loads(lines[i]), rng))
    return "\n".join(lines).encode("utf-8")


def _deep_nest(data: bytes, rng) -> bytes:
    """One value of a record nested 50 deep (parses) or 100,000 deep (does not)."""
    lines = data.decode("utf-8").split("\n")
    i = rng.randrange(len(lines) - 1)
    record = json.loads(lines[i])
    key = rng.choice(list(record))
    depth = rng.choice([50, 100_000])
    lines[i] = json.dumps({**record, key: "@"}).replace('"@"', "[" * depth + "]" * depth)
    return "\n".join(lines).encode("utf-8")


def _mutated(data: bytes, kind: str, rng) -> bytes:
    how = rng.choice(["truncate", "flip", "utf8", "swap"] + (["nest"] if kind == "jsonl" else []))
    if how == "truncate":
        return data[: rng.randrange(len(data))]
    if how == "flip":
        out = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        return bytes(out)
    if how == "utf8":
        at = rng.randrange(len(data) + 1)
        return data[:at] + rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80"]) + data[at:]
    if how == "swap":
        return _type_swap(data, kind, rng)
    return _deep_nest(data, rng)


def test_cli_survives_mutated_inputs(tmp_path, capsys):
    """Every subcommand on randomly damaged inputs: exit 0 or exit 1 with
    a `factbeam: error:` line, never an uncaught exception."""
    ent, rel = tmp_path / "entities.tsv", tmp_path / "relations.tsv"
    ent.write_text(catalog_tsv(ENTITIES), encoding="utf-8")
    rel.write_text(catalog_tsv(RELATIONS), encoding="utf-8")
    tries = tmp_path / "tries"
    assert main(["build-trie", "--entities", str(ent), "--relations", str(rel), "--out-dir", str(tries)]) == 0
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    pred = docs_file(
        tmp_path, "pred.jsonl",
        [
            {"id": "d1", "candidates": [{"rank": 1, "triplets": GOLD_RECORDS[0]["triplets"]}]},
            {"id": "d2", "triplets": [{"sub": "Rome", "rel": "crosses", "obj": "Paris", "sub_span": [0, 4]}]},
        ],
    )
    mentions = docs_file(tmp_path, "mentions.jsonl", [{"id": "d1", "spans": [[4, 9], [18, 22]]}])
    spanned = docs_file(tmp_path, "spanned.jsonl", SPANNED_GOLD_RECORDS)  # never damaged
    counts = tmp_path / "counts.tsv"
    counts.write_text("capital of\t3\ncrosses\t64\n", encoding="utf-8")
    inputs = {
        ent: "tsv", rel: "tsv", counts: "tsv", tries / "entity.trie": "trie",
        tries / "relation.trie": "trie", Path(gold): "jsonl", Path(pred): "jsonl", Path(mentions): "jsonl",
    }
    catalog = ["--entities", str(ent), "--relations", str(rel)]
    out = str(tmp_path / "out")
    commands = [
        ["build-trie", *catalog, "--out-dir", str(tmp_path / "built")],
        ["decode", "--input", gold, *catalog, "--tries", str(tries), "--scorer", f"oracle:{gold}",
         "-k", "2", "--max-len", "64", "--out", out],
        ["evaluate", "--gold", gold, "--pred", pred, *catalog, "--counts", str(counts),
         "--bootstrap", "20", "--out", out],
        ["attribute", "--gold", gold, "--pred", pred, *catalog, "--mentions", mentions, "--out", out],
        ["attribute", "--gold", gold, "--pred", pred, "--mentions", mentions, "--out", out],
        # gold lacks mention spans, so only a run on spanned gold reads pred and mentions with --mentions
        ["attribute", "--gold", spanned, "--pred", pred, *catalog, "--mentions", mentions, "--out", out],
    ]
    rng = random.Random(23)
    pristine = {path: path.read_bytes() for path in inputs}
    for round_ in range(160):
        path = list(inputs)[round_ % len(inputs)]
        path.write_bytes(_mutated(pristine[path], inputs[path], rng))
        for argv in commands:
            if str(path) in argv or str(path.parent) in argv:
                rc = main(argv)
                err = capsys.readouterr().err
                assert rc in (0, 1), argv
                assert rc == 0 or "factbeam: error:" in err, (argv, err)
        path.write_bytes(pristine[path])


# --- scale through the CLI ---------------------------------------------------------

# Per name, each about twice what the command took on a 2-core x86-64 machine
# (Python 3.11, numpy 2.4) when the check at that size was added: at 1e5 names,
# build-trie 84.2 MiB and 0.66-0.82 s, decode 74.8 MiB and 0.44-0.58 s; at 1e6
# names, build-trie 484.5 MiB and 6.0-6.6 s, decode 402.0 MiB and 2.2-2.6 s.
# Peak RSS is the process's ru_maxrss, interpreter and numpy included;
# seconds are its CPU time, which waiting for a busy machine does not inflate.
SCALE_BOUNDS = {  # names: {command: (KiB, CPU microseconds) per name}
    100_000: {"build-trie": (1.7, 16.0), "decode": (1.5, 11.0)},
    1_000_000: {"build-trie": (1.0, 13.0), "decode": (0.85, 5.5)},
}


# Runs argv[1:] and prints its exit code, peak RSS in KiB and CPU seconds. A
# process's ru_maxrss starts from the RSS of the process that forked it (exec
# keeps the high-water mark), so the command is started from this small
# process, not from the test process.
MEASURE = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_utime + usage.ru_stime)
"""


def run_measured(argv: list[str]) -> tuple[int, float]:
    """Run `python -m factbeam.cli argv` in a fresh process, which must exit
    0; its peak RSS in KiB and its CPU seconds."""
    proc = subprocess.run([sys.executable, "-c", MEASURE, sys.executable, "-m", "factbeam.cli", *argv],
                          capture_output=True, text=True, env=cli_process_env(), timeout=120)
    exit_code, kib, seconds = proc.stdout.split()
    assert (proc.returncode, exit_code) == (0, "0"), proc.stderr
    return int(kib), float(seconds)


def check_build_trie_then_decode(tmp_path, count: int) -> None:
    """`build-trie` over `count` names, then `decode --tries` of a few
    documents with the oracle scorer at k=10, each in its own process:
    bounded in peak RSS and CPU seconds per name, and the oracle's facts
    come back."""
    rng = random.Random(5)
    names = word_names(rng, count)
    relations = [name.lower() for name in word_names(rng, 500)]
    ent, rel = tmp_path / "entities.tsv", tmp_path / "relations.tsv"
    ent.write_text(catalog_tsv(names), encoding="utf-8")
    rel.write_text(catalog_tsv(relations), encoding="utf-8")
    records = []
    for d in range(5):
        facts = [(rng.choice(names), rng.choice(relations), rng.choice(names)) for _ in range(rng.randint(1, 3))]
        records.append({
            "id": f"d{d}",
            "input": " ".join(f"{s} {r} {o}." for s, r, o in facts),
            "triplets": [{"sub": s, "rel": r, "obj": o} for s, r, o in facts],
        })
    gold = docs_file(tmp_path, "gold.jsonl", records)
    catalog, tries, out = ["--entities", str(ent), "--relations", str(rel)], tmp_path / "tries", tmp_path / "pred.jsonl"
    measured = {
        "build-trie": run_measured(["build-trie", *catalog, "--out-dir", str(tries)]),
        "decode": run_measured(["decode", "--input", gold, *catalog, "--tries", str(tries),
                                "--scorer", f"oracle:{gold}", "-k", "10", "--out", str(out)]),
    }
    for step, (kib, seconds) in measured.items():
        kib_bound, us_bound = SCALE_BOUNDS[count][step]
        assert kib / len(names) < kib_bound, f"{step}: peak RSS {kib / 1024:.1f} MiB"
        assert seconds * 1e6 / len(names) < us_bound, f"{step}: {seconds:.2f} CPU seconds"
    by_id = read_records(out)
    for record in records:
        top = min(by_id[record["id"]]["candidates"], key=lambda c: c["rank"])
        assert {(t["sub"], t["rel"], t["obj"]) for t in top["triplets"]} == {
            (t["sub"], t["rel"], t["obj"]) for t in record["triplets"]
        }


def test_build_trie_then_decode_at_1e5_names(tmp_path):
    check_build_trie_then_decode(tmp_path, 100_000)


@pytest.mark.skipif(os.environ.get("FACTBEAM_1E6") != "1", reason="set FACTBEAM_1E6=1 to run at 1e6 names")
def test_build_trie_then_decode_at_1e6_names(tmp_path):
    check_build_trie_then_decode(tmp_path, 1_000_000)
