import copy
import json
import random
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from factbeam import (
    ByteTokenizer,
    EvalPair,
    TokenTrie,
    Triplet,
    build_catalog,
    build_trie,
    load_trie,
    names_digest,
    save_trie,
)
from factbeam.cli import main
from factbeam.fileio import read_jsonl, sha256_file, write_jsonl
from factbeam.metrics import bucketed_f1

from helpers import catalog_tsv

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


# --- build-trie ------------------------------------------------------------------


def test_build_trie_outputs(tmp_path, catalog_files):
    ent, rel = catalog_files
    out = tmp_path / "tries"
    assert main(["build-trie", "--entities", ent, "--relations", rel, "--out-dir", str(out)]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["entity"]["names"] == len(ENTITIES)
    assert stats["relation"]["names"] == len(RELATIONS)
    tok = ByteTokenizer()
    for kind, names in (("entity", ENTITIES), ("relation", RELATIONS)):
        built = build_trie(enumerate(names), tok)
        bound = TokenTrie(built.offsets, built.tokens, built.terminal, names_digest(enumerate(names)))
        assert load_trie(out / f"{kind}.trie") == bound
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "factbeam"
    assert manifest["subcommand"] == "build-trie"
    assert manifest["inputs"]["entities"]["sha256"] == sha256_file(ent)


def test_build_trie_reproducible(tmp_path, catalog_files):
    ent, rel = catalog_files
    for d in ("a", "b"):
        assert main(["build-trie", "--entities", ent, "--relations", rel, "--out-dir", str(tmp_path / d)]) == 0
    for name in ("entity.trie", "relation.trie"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    sa = json.loads((tmp_path / "a" / "stats.json").read_text())
    sb = json.loads((tmp_path / "b" / "stats.json").read_text())
    assert sa["entity"]["sha256"] == sb["entity"]["sha256"]


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
    by_id = {r["id"]: r for r in read_jsonl(out)}
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
    assert read_jsonl(out) == []


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


def test_decode_tries_from_other_catalog(tmp_path, catalog_files, capsys):
    ent, rel = catalog_files
    other = tmp_path / "other_entities.tsv"
    # as many names as the catalog, so only the decoded names give it away
    other.write_text(catalog_tsv(["Seine", "Oslo", "Bern"]), encoding="utf-8")
    tries = tmp_path / "tries"
    assert main(["build-trie", "--entities", str(other), "--relations", rel, "--out-dir", str(tries)]) == 0
    docs = docs_file(tmp_path, "docs.jsonl", [{"id": "d1", "input": "The Seine."}])
    rc, out = run_decode(
        tmp_path, catalog_files, docs,
        ["--tries", str(tries), "--scorer", "uniform", "--no-empty-set"],
    )
    assert_clean_failure(
        rc, capsys, out,
        f"{tries / 'entity.trie'}: trie was built from other entity names than the catalog's",
    )


def test_decode_tries_name_count_differs(tmp_path, catalog_files, capsys):
    ent, rel = catalog_files
    other = tmp_path / "other_entities.tsv"
    other.write_text(catalog_tsv(ENTITIES[:2]), encoding="utf-8")
    tries = tmp_path / "tries"
    assert main(["build-trie", "--entities", str(other), "--relations", rel, "--out-dir", str(tries)]) == 0
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    rc, out = run_decode(
        tmp_path, catalog_files, gold, ["--tries", str(tries), "--scorer", f"oracle:{gold}"]
    )
    assert_clean_failure(
        rc, capsys, out, f"{tries / 'entity.trie'}: trie holds 2 names, the entity catalog 3"
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
    save_trie(TokenTrie(trie.offsets, tokens, trie.terminal, trie.names_sha256), path)
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    rc, out = run_decode(tmp_path, catalog_files, gold, ["--tries", str(tries), "--scorer", "uniform"])
    assert_clean_failure(rc, capsys, out, f"{path}: edge token {token} outside the tokenizer's 261 ids")


def test_decode_non_object_line(tmp_path, catalog_files, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"id": "d1", "input": "x"}\n[1, 2]\n', encoding="utf-8")
    rc, out = run_decode(tmp_path, catalog_files, str(docs), ["--scorer", "uniform"])
    assert_clean_failure(rc, capsys, out, f"{docs}:2: expected a JSON object")


@pytest.mark.parametrize("bad_file, scorer", [("input", "uniform"), ("input", "ngram"), ("scorer", "ngram")])
def test_decode_non_string_input(tmp_path, catalog_files, capsys, bad_file, scorer):
    good = docs_file(tmp_path, "good.jsonl", GOLD_RECORDS)
    bad = docs_file(tmp_path, "bad.jsonl", [GOLD_RECORDS[0], {"id": "a", "input": 5}])
    docs, scorer_data = (bad, good) if bad_file == "input" else (good, bad)
    spec = "uniform" if scorer == "uniform" else f"ngram:{scorer_data}"
    rc, out = run_decode(tmp_path, catalog_files, docs, ["--scorer", spec])
    assert_clean_failure(rc, capsys, out, f'{bad}:2: "input" must be a string')


def test_decode_missing_input_defaults_to_empty(tmp_path, catalog_files):
    docs = docs_file(tmp_path, "docs.jsonl", [{"id": "a"}])
    rc, out = run_decode(tmp_path, catalog_files, docs, ["--scorer", f"ngram:{docs}"])
    assert rc == 0
    assert [r["id"] for r in read_jsonl(out)] == ["a"]


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


# --- failure handling ----------------------------------------------------------------


def test_missing_input_file_exit_code(tmp_path, catalog_files, capsys):
    ent, rel = catalog_files
    rc = main(
        ["evaluate", "--gold", str(tmp_path / "nope.jsonl"), "--pred", str(tmp_path / "nope.jsonl"),
         "--entities", ent, "--relations", rel, "--out", str(tmp_path / "r.json")]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["gold", "pred", "mentions"])
@pytest.mark.parametrize(
    "defect, record, message",
    [
        ("duplicate", {"id": "d1"}, "duplicate id 'd1'"),
        ("missing", {"input": "no id"}, 'record has no "id"'),
    ],
)
def test_duplicate_or_missing_id(tmp_path, catalog_files, capsys, kind, defect, record, message):
    ent, rel = catalog_files
    files = {
        "gold": docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS),
        "pred": docs_file(tmp_path, "pred.jsonl", GOLD_RECORDS),
        "mentions": docs_file(tmp_path, "mentions.jsonl", [{"id": "d1", "spans": []}]),
    }
    bad = tmp_path / f"{kind}.jsonl"
    bad.write_text(bad.read_text(encoding="utf-8") + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    line = len(bad.read_text(encoding="utf-8").splitlines())
    out = tmp_path / "attr.json"
    rc = main(
        ["attribute", "--gold", files["gold"], "--pred", files["pred"], "--entities", ent,
         "--relations", rel, "--mentions", files["mentions"], "--out", str(out)]
    )
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


def test_attribute_without_catalog_blank_name(tmp_path, capsys):
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    pred = docs_file(
        tmp_path, "pred.jsonl",
        [{"id": "d1", "triplets": []}, {"id": "d2", "triplets": [{"sub": " ", "rel": "crosses", "obj": "Rome"}]}],
    )
    out = tmp_path / "attr.json"
    rc = main(["attribute", "--gold", gold, "--pred", pred, "--out", str(out)])
    # the gold file named Tiber, Rome and Paris first
    assert_clean_failure(rc, capsys, out, f"{pred}:2: blank entity name at position 3")


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
    assert "factbeam: error: oracle file has no record for document 'd2'" in err
    assert out.read_bytes() == b'{"previous": "predictions"}\n'
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_attribute_bad_spans_value(tmp_path, catalog_files, capsys):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
    mentions = docs_file(tmp_path, "mentions.jsonl", [{"id": "d1", "spans": None}])
    out = tmp_path / "attr.json"
    rc = main(
        ["attribute", "--gold", gold, "--pred", gold, "--entities", ent, "--relations", rel,
         "--mentions", mentions, "--out", str(out)]
    )
    assert_clean_failure(
        rc, capsys, out, f'{mentions}:1: "spans" must be a list of [start, end] pairs'
    )


def test_attribute_overflowing_span(tmp_path, catalog_files, capsys):
    ent, rel = catalog_files
    gold = docs_file(tmp_path, "gold.jsonl", GOLD_RECORDS)
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
