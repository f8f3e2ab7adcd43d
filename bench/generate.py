"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` and returns plain data (names,
JSON-ready records), so the same seed always yields byte-identical input
files. The package under test only ever sees those files.
"""

from __future__ import annotations

import json
import random
from itertools import accumulate
from pathlib import Path

_ONSETS = "b c d f g h j k l m n p r s t v w z br dr gr kr pl st th sh".split()
_VOWELS = "a e i o u a e i o u ai ou ea".split()
_CODAS = ["", "", "", "", "n", "r", "s", "l", "m", "th", "x"]


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(
        rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
        for _ in range(syllables)
    )


def entity_names(rng: random.Random, count: int) -> list[str]:
    """`count` distinct capitalized multi-word names of about 20 bytes.

    Every word starts from a random syllable, so names share little
    more than their first two or three bytes.
    """
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        words = [_word(rng, rng.randint(2, 3)).capitalize() for _ in range(rng.randint(2, 3))]
        name = " ".join(words)
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def relation_names(rng: random.Random, count: int) -> list[str]:
    """`count` distinct lower-case relation names of one to three words."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        name = " ".join(_word(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def _fact_json(sub: str, rel: str, obj: str, sub_at: int, obj_at: int) -> dict:
    return {
        "sub": sub,
        "rel": rel,
        "obj": obj,
        "sub_span": [sub_at, sub_at + len(sub)],
        "obj_span": [obj_at, obj_at + len(obj)],
    }


def document(
    rng: random.Random,
    doc_id: str,
    entities: list[str],
    relations: list[str],
    n_facts: int,
    pick_entity=None,
    pick_relation=None,
) -> dict:
    """One document record: a sentence per fact, gold facts with mention spans.

    Facts in a document are distinct and never relate an entity to itself.
    """
    pick_entity = pick_entity or (lambda: rng.randrange(len(entities)))
    pick_relation = pick_relation or (lambda: rng.randrange(len(relations)))
    facts: list[tuple[int, int, int]] = []
    while len(facts) < n_facts:
        fact = (pick_entity(), pick_relation(), pick_entity())
        if fact[0] != fact[2] and fact not in facts:
            facts.append(fact)
    text = ""
    triplets = []
    for s, r, o in facts:
        sub, rel, obj = entities[s], relations[r], entities[o]
        if text:
            text += " "
        sub_at = len(text)
        obj_at = sub_at + len(sub) + 1 + len(rel) + 1
        text += f"{sub} {rel} {obj}."
        triplets.append(_fact_json(sub, rel, obj, sub_at, obj_at))
    return {"id": doc_id, "input": text, "triplets": triplets}


def fact_counts(rng: random.Random, count: int, max_facts: int) -> list[int]:
    """`count` fact counts in 1..max_facts, shuffled within blocks of max_facts.

    Blocking keeps the mix of any prefix of the list balanced, so a run
    that processes only the first documents still sees every size, and
    corpora of the same length hold the same number of facts.
    """
    out: list[int] = []
    while len(out) < count:
        block = list(range(1, max_facts + 1))
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def decode_documents(
    rng: random.Random, entities: list[str], relations: list[str], count: int, prefix: str
) -> list[dict]:
    """Documents with 1-3 facts each, uniformly picked entities and relations."""
    return [
        document(rng, f"{prefix}{i:06d}", entities, relations, n)
        for i, n in enumerate(fact_counts(rng, count, 3))
    ]


def zipf_picker(rng: random.Random, n: int, exponent: float):
    """Sampler of 0..n-1 with P(i) proportional to 1 / (i + 1) ** exponent."""
    cum = list(accumulate(1.0 / (i + 1) ** exponent for i in range(n)))
    ids = range(n)
    return lambda: rng.choices(ids, cum_weights=cum)[0]


def evaluation_corpus(
    rng: random.Random,
    entities: list[str],
    relations: list[str],
    n_docs: int,
    train_facts: int,
    zipf_exponent: float = 1.1,
    max_facts: int = 8,
) -> tuple[list[dict], list[dict], dict[str, int]]:
    """(gold records, prediction records, relation occurrence counts).

    Each gold fact is kept, subject-swapped (an entity-linking error),
    relation-swapped (a relation-classification error) or dropped in the
    prediction, which also gains spurious facts. Predictions are written
    the way the decoder writes them: one rank-1 candidate per document.
    Occurrence counts come from a separate draw of `train_facts` facts.
    """
    pick_entity = zipf_picker(rng, len(entities), zipf_exponent)
    pick_relation = zipf_picker(rng, len(relations), zipf_exponent)
    gold_docs = []
    pred_docs = []
    for i, n_facts in enumerate(fact_counts(rng, n_docs, max_facts)):
        doc = document(
            rng, f"e{i:06d}", entities, relations, n_facts, pick_entity, pick_relation
        )
        predicted = []
        for fact in doc["triplets"]:
            fate = rng.random()
            if fate < 0.55:
                predicted.append(dict(fact))
            elif fate < 0.7:
                predicted.append(dict(fact, sub=entities[pick_entity()]))
            elif fate < 0.85:
                predicted.append(dict(fact, rel=relations[pick_relation()]))
        for _ in range(rng.choice((0, 0, 1, 2))):
            predicted.append(
                {"sub": entities[pick_entity()], "rel": relations[pick_relation()],
                 "obj": entities[pick_entity()]}
            )
        triplets = [{k: f[k] for k in ("sub", "rel", "obj")} for f in predicted]
        unique = list({(t["sub"], t["rel"], t["obj"]): t for t in triplets}.values())
        gold_docs.append(doc)
        pred_docs.append(
            {"id": doc["id"], "candidates": [{"rank": 1, "log_prob": 0.0, "triplets": unique}]}
        )
    counts: dict[str, int] = {}
    for _ in range(train_facts):
        rel = relations[pick_relation()]
        counts[rel] = counts.get(rel, 0) + 1
    return gold_docs, pred_docs, counts


# --- input files -------------------------------------------------------------


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _write_catalog(out_dir: Path, entities: list[str], relations: list[str]) -> None:
    _write_lines(out_dir / "entities.tsv", (f"{i}\t{n}" for i, n in enumerate(entities)))
    _write_lines(out_dir / "relations.tsv", (f"{i}\t{n}" for i, n in enumerate(relations)))


def _write_jsonl(path: Path, records: list[dict]) -> None:
    _write_lines(path, (json.dumps(r, ensure_ascii=False, sort_keys=True) for r in records))


def write_decode_inputs(out_dir: Path, seed: int, params: dict) -> None:
    """entities.tsv, relations.tsv, docs.jsonl and, for an n-gram scorer,
    train.jsonl: training documents disjoint from the decoded ones."""
    rng = random.Random(seed)
    entities = entity_names(rng, params["entities"])
    relations = relation_names(rng, params["relations"])
    docs = decode_documents(rng, entities, relations, params["docs"], "d")
    _write_catalog(out_dir, entities, relations)
    _write_jsonl(out_dir / "docs.jsonl", docs)
    if params.get("train_docs"):
        texts = {d["input"] for d in docs}
        train = decode_documents(rng, entities, relations, params["train_docs"], "t")
        _write_jsonl(out_dir / "train.jsonl", [d for d in train if d["input"] not in texts])


def write_evaluation_inputs(out_dir: Path, seed: int, params: dict) -> None:
    """entities.tsv, relations.tsv, gold.jsonl, pred.jsonl and counts.tsv."""
    rng = random.Random(seed)
    entities = entity_names(rng, params["entities"])
    relations = relation_names(rng, params["relations"])
    gold, pred, counts = evaluation_corpus(
        rng, entities, relations, params["docs"], params["train_facts"],
        params["zipf_exponent"], params["max_facts"],
    )
    _write_catalog(out_dir, entities, relations)
    _write_jsonl(out_dir / "gold.jsonl", gold)
    _write_jsonl(out_dir / "pred.jsonl", pred)
    _write_lines(out_dir / "counts.tsv", (f"{rel}\t{n}" for rel, n in sorted(counts.items())))
