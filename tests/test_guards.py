"""Whole-CLI guards: a seeded mutation fuzz over every input file the
subcommands read, and outputs that depend neither on the hash seed nor
on `python -O`."""

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

from factbeam.cli import main
from factbeam.fileio import write_jsonl

from helpers import catalog_tsv, rand_names

SRC = Path(__file__).resolve().parents[1] / "src"

ENTITIES = ["Paris", "Rome", "Tiber", "Seine", "naïve Ørsted", "Bern"]
RELATIONS = ["capital of", "crosses", "near"]
RECORDS = [
    {
        "id": "d1",
        "input": "The Tiber crosses Rome.",
        "triplets": [{"sub": "Tiber", "rel": "crosses", "obj": "Rome", "sub_span": [4, 9], "obj_span": [18, 22]}],
    },
    {
        "id": 2,
        "input": "Paris lies near Bern; naïve Ørsted.",
        "triplets": [
            {"sub": "Paris", "rel": "near", "obj": "Bern", "sub_span": [0, 5]},
            {"sub": "naïve Ørsted", "rel": "capital of", "obj": "Seine", "obj_span": [22, 34]},
        ],
    },
    {"id": "d3", "input": "Nothing here.", "triplets": []},
]
PREDICTIONS = [
    {
        "id": "d1",
        "candidates": [
            {"rank": 2, "log_prob": -2.5, "triplets": []},
            {"rank": 1, "log_prob": -1.5, "triplets": [{"sub": "Tiber", "rel": "crosses", "obj": "Rome"}]},
        ],
    },
    {"id": 2, "triplets": [{"sub": "Paris", "rel": "near", "obj": "Rome"}]},
    {"id": "d3", "candidates": [], "error": "no sequence finished within max_len=64"},
]
MENTIONS = [{"id": "d1", "spans": [[4, 9], [18, 22]]}, {"id": 2, "spans": [[0, 5], [16, 20]]}]

# --- mutation fuzz ---------------------------------------------------------------

TEXT_KINDS = [
    "flip", "truncate", "cut", "duplicate-line", "swap-lines",
    "insert-cr", "insert-nul", "insert-bom", "insert-surrogate",
]
BAD_JSON = [
    "null", "1e400", "[]", "{}", '"\\udc80"', "9999999999999999999999", '""', '" "', "-1", "true", "0.5",
    '"x"', "[[0, 1, 2]]",
]
KINDS = {
    "text": TEXT_KINDS,
    "jsonl": TEXT_KINDS + [f"json-value-{i}" for i in range(len(BAD_JSON))] + ["json-drop"],
    "trie": ["flip", "truncate", "cut", "int32", "int32", "int32"],
}
INSERTS = {"cr": b"\r", "nul": b"\x00", "bom": b"\xef\xbb\xbf", "surrogate": b"\xed\xb2\x80"}
BAD_INT32 = [-2, -1, 0, 4, 5, 261, 2**31 - 1]
TRIE_HEADER = 48  # magic, node count, catalog SHA-256
RUNS_PER_INPUT = 36  # every mutation kind of an input runs at least once
SLOT_TYPE = {
    "entities": "text", "relations": "text", "counts": "text",
    "entity_trie": "trie", "relation_trie": "trie",
}  # the rest are JSONL
SENTINEL = b"sentinel bytes written before the run\n"


def _write_inputs(base: Path) -> dict[str, Path]:
    base.mkdir()
    paths = {name: base / f"{name}.tsv" for name in ("entities", "relations", "counts")}
    paths["entities"].write_text(catalog_tsv(ENTITIES), encoding="utf-8")
    paths["relations"].write_text(catalog_tsv(RELATIONS), encoding="utf-8")
    paths["counts"].write_text("crosses\t4\ncapital of\t1\nnear\t0\n", encoding="utf-8")
    for name, records in (
        ("docs", RECORDS), ("train", RECORDS), ("gold", RECORDS), ("pred", PREDICTIONS), ("mentions", MENTIONS)
    ):
        paths[name] = base / f"{name}.jsonl"
        write_jsonl(paths[name], records)
    tries = base / "tries"
    argv = ["build-trie", "--entities", str(paths["entities"]), "--relations", str(paths["relations"])]
    assert main([*argv, "--out-dir", str(tries)]) == 0
    paths["entity_trie"], paths["relation_trie"] = tries / "entity.trie", tries / "relation.trie"
    return paths


def _jobs(p: dict[str, Path], out: Path) -> dict[str, tuple[list[str], list[str], list[Path]]]:
    """Per job: its argv, the inputs it reads and the outputs it names."""
    catalog = ["--entities", p["entities"], "--relations", p["relations"]]
    pred, report = out / "pred.jsonl", out / "report.json"
    decode = ["decode", "--input", p["docs"], *catalog, "-k", "3", "--max-len", "64", "--out", pred]
    decoded = [pred, out / "pred.jsonl.manifest.json"]
    reported = [report, out / "report.json.manifest.json"]
    built = out / "tries"
    jobs = {
        "build-trie": (
            ["build-trie", *catalog, "--out-dir", built],
            ["entities", "relations"],
            [built / name for name in ("entity.trie", "relation.trie", "stats.json", "manifest.json")],
        ),
        "decode-tries": (
            [*decode, "--tries", p["entity_trie"].parent, "--scorer", f"oracle:{p['gold']}"],
            ["docs", "entities", "relations", "gold", "entity_trie", "relation_trie"],
            decoded,
        ),
        "decode-ngram": ([*decode, "--scorer", f"ngram:{p['train']}"], ["docs", "entities", "relations", "train"], decoded),
        "decode-random": ([*decode, "--scorer", "random"], ["docs", "entities", "relations"], decoded),
        "evaluate": (
            ["evaluate", "--gold", p["gold"], "--pred", p["pred"], *catalog, "--counts", p["counts"],
             "--bootstrap", "20", "--out", report],
            ["gold", "pred", "entities", "relations", "counts"],
            [*reported, out / "report.buckets.tsv"],
        ),
        "attribute": (
            ["attribute", "--gold", p["gold"], "--pred", p["pred"], *catalog, "--mentions", p["mentions"],
             "--out", report],
            ["gold", "pred", "entities", "relations", "mentions"],
            reported,
        ),
        "attribute-implicit": (
            ["attribute", "--gold", p["gold"], "--pred", p["pred"], "--mentions", p["mentions"],
             "--mode", "partial", "--out", report],
            ["gold", "pred", "mentions"],
            reported,
        ),
    }
    return {name: ([str(a) for a in argv], slots, outputs) for name, (argv, slots, outputs) in jobs.items()}


def _mutate_json(rng: random.Random, data: bytes, kind: str) -> bytes:
    """One record's value replaced by a bad JSON value, a top-level one
    half the time, or one of its keys dropped."""
    lines = data.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    record = json.loads(lines[i])
    places = []  # (container, key) of every value in the record

    def walk(value) -> None:
        items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
        for key, item in items:
            places.append((value, key))
            walk(item)

    walk(record)
    if kind == "json-drop":
        container, key = rng.choice([(c, k) for c, k in places if isinstance(c, dict)])
        del container[key]
        lines[i] = json.dumps(record).encode() + b"\n"
    else:
        container, key = rng.choice([(record, k) for k in record] if rng.random() < 0.5 else places)
        container[key] = "@MUTATED@"
        value = BAD_JSON[int(kind[len("json-value-") :])]
        lines[i] = json.dumps(record).replace('"@MUTATED@"', value).encode() + b"\n"
    return b"".join(lines)


def mutate(rng: random.Random, data: bytes, kind: str) -> bytes:
    i = rng.randrange(len(data))
    if kind == "flip":
        return data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1 :]
    if kind == "truncate":
        return data[:i]
    if kind == "cut":
        return data[:i] + data[i + rng.randint(1, 8) :]
    if kind.startswith("insert-"):
        return data[:i] + INSERTS[kind[len("insert-") :]] + data[i:]
    if kind == "int32":
        at = TRIE_HEADER + 4 * rng.randrange((len(data) - TRIE_HEADER) // 4)
        return data[:at] + rng.choice(BAD_INT32).to_bytes(4, "little", signed=True) + data[at + 4 :]
    if kind.startswith("json-"):
        return _mutate_json(rng, data, kind)
    lines = data.splitlines(keepends=True)
    a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
    if kind == "duplicate-line":
        lines.insert(a, lines[a])
    else:
        lines[a], lines[b] = lines[b], lines[a]
    return b"".join(lines)


def test_mutated_inputs_fail_cleanly(tmp_path):
    """Every job runs on each of its inputs mutated in every kind. Each
    run returns 0 or 1 and raises nothing; on 1, stderr names one of the
    run's input files on a `factbeam: error:` line, and every output the
    run names still holds the bytes it held before the run."""
    base = _write_inputs(tmp_path / "base")
    run_dir, out = tmp_path / "run", tmp_path / "out"
    rng = random.Random(9)
    problems, runs, failures = [], 0, 0
    for job in _jobs(base, out):
        for slot in _jobs(base, out)[job][1]:
            kinds = KINDS[SLOT_TYPE.get(slot, "jsonl")]
            for r in range(RUNS_PER_INPUT):
                kind = kinds[r % len(kinds)]
                shutil.rmtree(run_dir, ignore_errors=True)
                run_dir.mkdir()
                paths = dict(base)
                if SLOT_TYPE.get(slot) == "trie":  # --tries names a directory holding both artifacts
                    (run_dir / "tries").mkdir()
                    for name in ("entity_trie", "relation_trie"):
                        paths[name] = run_dir / "tries" / base[name].name
                        shutil.copyfile(base[name], paths[name])
                else:
                    paths[slot] = run_dir / base[slot].name
                paths[slot].write_bytes(mutate(rng, base[slot].read_bytes(), kind))
                argv, slots, outputs = _jobs(paths, out)[job]
                named = [str(paths[s]) for s in slots]
                if "entity_trie" in slots:  # an error of either artifact may name their directory
                    named.append(str(paths["entity_trie"].parent))
                for path in outputs:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_bytes(SENTINEL)
                where = f"{job}, {kind} {slot}, run {r}"
                stderr = io.StringIO()
                try:
                    with contextlib.redirect_stderr(stderr):
                        rc = main(argv)
                except Exception as exc:  # noqa: BLE001 - any escape is the finding
                    problems.append(f"{where}: raised {exc!r}")
                    continue
                runs += 1
                if rc == 0:
                    continue
                failures += 1
                errors = [line for line in stderr.getvalue().splitlines() if line.startswith("factbeam: error:")]
                if rc != 1:
                    problems.append(f"{where}: exit {rc}")
                elif not any(name in line for name in named for line in errors):
                    problems.append(f"{where}: no input path named in {stderr.getvalue()!r}")
                changed = [p.name for p in outputs if p.read_bytes() != SENTINEL]
                left = sorted(p.name for p in out.rglob(".*.tmp"))
                if changed or left:
                    problems.append(f"{where}: outputs {changed} rewritten, temp files {left} left")
    assert problems == [], "\n".join(problems)
    assert runs >= 1000 and 0.3 * runs < failures < runs  # most mutations are refused, not all


# --- determinism ------------------------------------------------------------------


def _write_corpus(base: Path) -> None:
    rng = random.Random(4)
    names = rand_names(rng, 70, 3, 12, "abcdefghij éøλ")
    entities, relations = names[:60], names[60:]
    (base / "entities.tsv").write_text(catalog_tsv(entities), encoding="utf-8")
    (base / "relations.tsv").write_text(catalog_tsv(relations), encoding="utf-8")
    gold, pred, mentions = [], [], []
    for i in range(30):
        facts = [
            {"sub": rng.choice(entities), "rel": rng.choice(relations), "obj": rng.choice(entities), "sub_span": [0, 3]}
            for _ in range(rng.randint(0, 3))
        ]
        text = " ".join(f"{f['sub']} {f['rel']} {f['obj']}." for f in facts)
        gold.append({"id": f"doc{i}", "input": text, "triplets": facts})
        kept = [f for f in facts if rng.random() < 0.6] + [
            {"sub": rng.choice(entities), "rel": rng.choice(relations), "obj": f["obj"]}
            for f in facts if rng.random() < 0.5
        ]
        pred.append({"id": f"doc{i}", "triplets": kept})
        mentions.append({"id": f"doc{i}", "spans": [[0, 3], [4, 8]][: rng.randint(0, 2)]})
    write_jsonl(base / "gold.jsonl", gold)
    write_jsonl(base / "pred.jsonl", pred)
    write_jsonl(base / "mentions.jsonl", mentions)
    counts = "".join(f"{rel}\t{rng.choice([0, 1, 3, 9, 40])}\n" for rel in relations)
    (base / "counts.tsv").write_text(counts, encoding="utf-8")


DETERMINISM_RUNS = [
    ["build-trie", "$CAT", "--out-dir", "out/tries"],
    ["decode", "--input", "../in/gold.jsonl", "$CAT", "--tries", "out/tries", "--scorer", "oracle:../in/gold.jsonl",
     "-k", "3", "--out", "out/oracle.jsonl"],
    ["decode", "--input", "../in/gold.jsonl", "$CAT", "--scorer", "ngram:../in/gold.jsonl", "-k", "3",
     "--max-len", "64", "--out", "out/ngram.jsonl"],
    ["decode", "--input", "../in/gold.jsonl", "$CAT", "--scorer", "random", "--seed", "7", "-k", "3",
     "--max-len", "64", "--out", "out/random.jsonl"],
    ["evaluate", "--gold", "../in/gold.jsonl", "--pred", "../in/pred.jsonl", "$CAT", "--counts", "../in/counts.tsv",
     "--bootstrap", "50", "--out", "out/report.json"],
    ["attribute", "--gold", "../in/gold.jsonl", "--pred", "../in/pred.jsonl", "$CAT",
     "--mentions", "../in/mentions.jsonl", "--out", "out/attribute.json"],
    ["attribute", "--gold", "../in/gold.jsonl", "--pred", "../in/pred.jsonl", "--out", "out/attribute-implicit.json"],
]
RUN_ALL = """
import json, sys
from factbeam.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"exit 1: {argv}")
"""


def test_outputs_independent_of_hash_seed_and_optimize_flag(tmp_path):
    """The four subcommands write the same bytes under two hash seeds and
    under `python -O` (manifests less their wall time)."""
    (tmp_path / "in").mkdir()
    _write_corpus(tmp_path / "in")
    cat = ["--entities", "../in/entities.tsv", "--relations", "../in/relations.tsv"]
    runs = [[a for arg in argv for a in (cat if arg == "$CAT" else [arg])] for argv in DETERMINISM_RUNS]
    variants = {"hashseed-0": ([], "0"), "hashseed-1": ([], "1"), "optimized": (["-O"], "2")}
    procs = {}
    for name, (flags, seed) in variants.items():
        (tmp_path / name).mkdir()
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        procs[name] = subprocess.Popen(
            [sys.executable, *flags, "-c", RUN_ALL, json.dumps(runs)],
            cwd=tmp_path / name, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    for name, proc in procs.items():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (name, err)

    def outputs(name: str) -> dict[str, object]:
        found = {}
        for path in (tmp_path / name / "out").rglob("*"):
            if path.is_file():
                data = path.read_bytes()
                if path.name.endswith("manifest.json"):
                    data = {k: v for k, v in json.loads(data).items() if k != "seconds"}
                found[str(path.relative_to(tmp_path / name))] = data
        return found

    first, *rest = (outputs(name) for name in variants)
    assert len(first) == 17  # 4 from build-trie, then 3 JSONL, 3 JSON and a bucket table, with 6 manifests
    for other in rest:
        assert other == first
