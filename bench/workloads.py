"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one client: the next document (or,
for evaluation, the next pass over the corpus) starts only when the
previous one is done. Calls go through factbeam's public API in the
order the CLI makes them: `build-trie`, `decode --tries`, `evaluate
--bootstrap --buckets` and `attribute`. The calls are made through an
`api` namespace so that the traced run can hand in wrapped functions.
"""

from __future__ import annotations

import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from factbeam.decoder import DecodeConfig, NoCompleteHypothesis
from factbeam.fileio import triplet_to_json
from factbeam.linearize import MentionedTriplet, UnknownId, linearize, order_triplets, parse
from factbeam.metrics import EvalPair, macro_scores, micro_scores
from factbeam.scorers import OracleScorer
from factbeam.tokens import ByteTokenizer

import generate
from spans import ScorerProxy, TokenizerProxy, Tracer, TrieProxy, plain_api

DEFAULT_SEED = 0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_DOCS = 4  # decoded documents compared against the golden file
LOG_PROB_TOLERANCE = 1e-9

WORKLOADS: dict[str, dict] = {
    "decode-large-catalog": {
        "kind": "decode",
        "why": "100k realistic names, oracle scorer, k=10: the trie layer (len scan, "
        "build, save, load) dominates decode time, set-up and memory",
        "full": {
            "entities": 100_000, "relations": 500, "docs": 1000, "scorer": "oracle",
            "beam_size": 10, "length_alpha": 0.0, "max_triplets": None, "trace_docs": 12,
            "setup_repeats": 2,
        },
        "smoke": {
            "entities": 2000, "relations": 40, "docs": 30, "scorer": "oracle",
            "beam_size": 10, "length_alpha": 0.0, "max_triplets": None, "trace_docs": 3,
            "setup_repeats": 2,
        },
    },
    "decode-wide-beam": {
        "kind": "decode",
        "why": "2k names, byte 4-gram scorer, k=50, length_alpha=1: scorer calls and "
        "candidate expansion/selection dominate, the len scan is minor",
        "full": {
            "entities": 2000, "relations": 100, "docs": 1000, "train_docs": 3000,
            "scorer": "ngram", "ngram_order": 4, "beam_size": 50, "length_alpha": 1.0,
            "max_triplets": 3, "trace_docs": 12, "setup_repeats": 3,
        },
        "smoke": {
            "entities": 300, "relations": 20, "docs": 30, "train_docs": 100,
            "scorer": "ngram", "ngram_order": 4, "beam_size": 8, "length_alpha": 1.0,
            "max_triplets": 3, "trace_docs": 3, "setup_repeats": 2,
        },
    },
    "evaluate-corpus": {
        "kind": "evaluate",
        "why": "no decoding: read gold/pred JSONL, micro/macro/per-relation/buckets, "
        "bootstrap B=1000 and attribution; bootstrap dominates",
        "full": {
            "entities": 20_000, "relations": 300, "docs": 500, "train_facts": 20_000,
            "zipf_exponent": 1.1, "max_facts": 8, "bootstrap": 1000, "trace_docs": 3,
        },
        "smoke": {
            "entities": 500, "relations": 30, "docs": 16, "train_facts": 2000,
            "zipf_exponent": 1.1, "max_facts": 8, "bootstrap": 20, "trace_docs": 1,
        },
    },
}


@dataclass
class Outcome:
    """What one measured loop did. For evaluation, `units` counts scored
    documents and each pass adds one latency sample, its time per
    document, and one set-up sample, its catalog load."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    units: int = 0
    busy_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    output: list[str] = field(default_factory=list)  # lines written, for identity checks
    sizes: dict[str, int] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def write_inputs(workload: str, size: str, seed: int, work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    spec = WORKLOADS[workload]
    writer = generate.write_decode_inputs if spec["kind"] == "decode" else generate.write_evaluation_inputs
    writer(work, seed, spec[size])


def run(
    workload: str,
    size: str,
    work: Path,
    seconds: float,
    api=None,
    tracer: Tracer | None = None,
    repeat_setup: bool = False,
    max_units: int | None = None,
) -> Outcome:
    """Set up, then run the loop for `seconds`, or for `max_units`
    documents/passes when given. With `repeat_setup` a decode workload
    sets up `setup_repeats` times and keeps the last. Inputs must already
    be in `work`."""
    spec = WORKLOADS[workload]
    fn = _run_decode if spec["kind"] == "decode" else _run_evaluate
    return fn(spec[size], work, seconds, api or plain_api(), tracer, repeat_setup, max_units)


def _set_up(make, out: Outcome, repeats: int):
    state = None
    for _ in range(repeats):
        state = None  # free the previous set-up before making the next
        t0 = perf_counter()
        state = make()
        out.setup_s.append(perf_counter() - t0)
    return state


def _keep_going(t_start: float, seconds: float, done: int, max_units: int | None) -> bool:
    if max_units is not None:
        return done < max_units
    return perf_counter() - t_start < seconds


# --- decode -----------------------------------------------------------------


def _decode_setup(api, p: dict, work: Path, tok, scorer_tok):
    cat = api.load_catalog(work / "entities.tsv", work / "relations.tsv")
    paths = (work / "entity.trie", work / "relation.trie")
    built = [api.build_trie(enumerate(names), tok) for names in (cat.entity_names, cat.relation_names)]
    for trie, path in zip(built, paths):
        api.save_trie(trie, path)
    del built
    tries = tuple(api.load_trie(path) for path in paths)
    docs = api.read_documents(work / "docs.jsonl", cat)
    if p["scorer"] == "oracle":
        targets = {
            d.doc_id: api.linearize(order_triplets(d.triplets), cat, scorer_tok) for d in docs
        }

        def scorer_for(doc):
            return OracleScorer(targets[doc.doc_id], tok.vocab_size)

    else:
        train = api.read_documents(work / "train.jsonl", cat)
        corpus = [
            tok.encode(d.text) + api.linearize(order_triplets(d.triplets), cat, tok) for d in train
        ]
        scorer = api.train_ngram(corpus, n=p["ngram_order"], tokenizer=scorer_tok)

        def scorer_for(doc):
            return scorer

    return cat, tries, docs, scorer_for


def _max_len(cat, tok, max_triplets: int | None) -> int:
    """The default max_len, raised when capped fact sets allow longer
    sequences, so that every hypothesis can finish. Length normalization
    favours long names, and a beam that runs out of length fails."""
    if max_triplets is None:
        return DecodeConfig.max_len
    entity = max(len(tok.encode(n)) for n in cat.entity_names)
    relation = max(len(tok.encode(n)) for n in cat.relation_names)
    return max(DecodeConfig.max_len, max_triplets * (4 + 2 * entity + relation) + 1)


def _decode_record(doc, ranked, error: str | None, cat) -> dict:
    """The record `factbeam decode` writes for one document."""
    record: dict = {"id": doc.doc_id}
    if ranked is None:
        record["candidates"] = []
        record["error"] = error
        return record
    record["candidates"] = [
        {
            "rank": rank,
            "log_prob": lp,
            "triplets": [
                triplet_to_json(MentionedTriplet(t), cat)
                for t in sorted(ts, key=lambda t: (t.subject, t.relation, t.object))
            ],
        }
        for rank, (ts, lp) in enumerate(ranked, 1)
    ]
    return record


def _run_decode(p, work, seconds, api, tracer, repeat_setup, max_units) -> Outcome:
    out = Outcome()
    tok = ByteTokenizer()
    dec_tok = TokenizerProxy(tok, tracer) if tracer else tok
    cat, tries, docs, scorer_for = _set_up(
        lambda: _decode_setup(api, p, work, tok, dec_tok), out,
        p["setup_repeats"] if repeat_setup else 1,
    )
    out.sizes = {
        "trie_nodes": sum(t.node_count for t in tries),
        "trie_file_bytes": sum((work / f).stat().st_size for f in ("entity.trie", "relation.trie")),
    }
    if tracer:
        out.sizes["trie_bytes"] = sum(t.approx_bytes() for t in tries)
        tries = tuple(TrieProxy(t, tracer) for t in tries)
    cfg = DecodeConfig(
        beam_size=p["beam_size"],
        max_len=_max_len(cat, tok, p["max_triplets"]),
        length_alpha=p["length_alpha"],
        max_triplets=p["max_triplets"],
    )
    records, results = [], []
    t_start = perf_counter()
    while _keep_going(t_start, seconds, len(records), max_units):
        i = len(records)
        doc = docs[i % len(docs)]
        if tracer:
            tracer.doc_index = i
        scorer = scorer_for(doc)
        if tracer:
            scorer = ScorerProxy(scorer, tracer)
        ranked, error = None, None
        t0 = perf_counter()
        try:
            ranked = api.decode(doc.text, scorer, cat, tries, cfg, dec_tok)
        except NoCompleteHypothesis as exc:
            error = f"NoCompleteHypothesis: {exc}"
        except Exception:  # any crash is one failed document, not a failed run
            error = traceback.format_exc()
        t1 = perf_counter()
        records.append(_decode_record(doc, ranked, error, cat))
        results.append((doc, ranked, error))
        out.busy_s += perf_counter() - t0
        out.latencies_s.append(t1 - t0)
    t0 = perf_counter()
    api.write_jsonl(work / "pred.jsonl", records)
    out.busy_s += perf_counter() - t0
    out.units = out.attempted = len(records)
    out.output = (work / "pred.jsonl").read_text(encoding="utf-8").splitlines()
    for doc, ranked, error in results:
        problem = error or check_decoded(ranked, doc, cat, tok, p["scorer"] == "oracle")
        if problem:
            out.fail(f"doc {doc.doc_id}: {problem}")
    return out


def check_decoded(ranked, doc, cat, tok, expect_gold: bool) -> str | None:
    """Every candidate holds in-catalog ids and re-parses from its
    linearization with no diagnostics; with an oracle scorer the rank-1
    set is the gold set."""
    if not ranked:
        return "no candidates"
    for rank, (triplets, lp) in enumerate(ranked, 1):
        if not math.isfinite(lp):
            return f"rank {rank}: log-prob {lp}"
        for t in triplets:
            if not (0 <= t.subject < cat.num_entities and 0 <= t.object < cat.num_entities
                    and 0 <= t.relation < cat.num_relations):
                return f"rank {rank}: {t} outside the catalog"
        try:
            parsed = parse(linearize(sorted(triplets), cat, tok), cat, tok)
        except UnknownId as exc:
            return f"rank {rank}: {exc}"
        if parsed.diagnostics or parsed.triplets != triplets:
            return f"rank {rank}: re-parse gives {parsed}"
    if expect_gold and ranked[0][0] != doc.triplet_set():
        return "rank-1 set differs from gold"
    return None


# --- evaluate ---------------------------------------------------------------


def _prf_json(prf) -> dict:
    return {"p": prf.p, "r": prf.r, "f1": prf.f1, "flags": sorted(prf.flags)}


def _evaluate(api, cat, work: Path, p: dict, tracer: Tracer | None):
    """One pass: read gold, predictions and counts, then every report
    `factbeam evaluate --bootstrap --buckets` and `factbeam attribute` make."""
    gold_docs = api.read_documents(work / "gold.jsonl", cat)
    pred_sets = api.read_prediction_sets(work / "pred.jsonl", cat)
    counts = api.read_counts(work / "counts.tsv", cat)
    pairs = [
        EvalPair(d.doc_id, pred_sets.get(d.doc_id, frozenset()), d.triplet_set())
        for d in gold_docs
    ]

    def micro_f1(ps):
        return micro_scores(ps).f1

    def macro_f1(ps):
        return macro_scores(ps, cat).f1

    if tracer:
        micro_f1 = tracer.wrap("metrics.bootstrap_statistic", micro_f1)
        macro_f1 = tracer.wrap("metrics.bootstrap_statistic", macro_f1)
    micro = api.micro_scores(pairs)
    macro = api.macro_scores(pairs, cat)
    per_relation = api.per_relation_scores(pairs, cat)
    buckets = api.bucketed_f1(pairs, counts)
    ci_micro = api.bootstrap_ci(pairs, micro_f1, p["bootstrap"], seed=0)
    ci_macro = api.bootstrap_ci(pairs, macro_f1, p["bootstrap"], seed=0)
    nel, rc = api.nel_rc_errors(pairs)
    recall_err = api.recall_error(pairs)
    report = {
        "n_documents": len(pairs),
        "micro": _prf_json(micro),
        "macro": _prf_json(macro),
        "per_relation": {
            cat.relation_name(rel): {
                "p": s.p, "r": s.r, "f1": s.f1, "support": s.support, "flags": sorted(s.flags),
            }
            for rel, s in per_relation.items()
        },
        "buckets": {str(b): [f1, n] for b, (f1, n) in sorted(buckets.items())},
        "bootstrap": {"B": p["bootstrap"], "micro_f1": list(ci_micro), "macro_f1": list(ci_macro)},
        "attribution": {
            "n_gold_triplets": sum(len(pair.gold) for pair in pairs),
            "nel_error": nel,
            "rc_error": rc,
            "overall_recall_error": recall_err,
        },
    }
    api.write_json(work / "report.json", report)
    return report, pairs


def check_report(report: dict, pairs) -> str | None:
    """Independent checks: micro scores recounted from the pairs, and the
    identities greedy matching implies (a gold triplet is matched verbatim
    exactly when it is predicted, so recall error is 1 - micro recall and
    bounds both error shares)."""
    correct = sum(len(pair.predicted & pair.gold) for pair in pairs)
    n_pred = sum(len(pair.predicted) for pair in pairs)
    n_gold = sum(len(pair.gold) for pair in pairs)
    micro_p = correct / n_pred if n_pred else 0.0
    micro_r = correct / n_gold if n_gold else 0.0
    att = report["attribution"]
    if abs(report["micro"]["p"] - micro_p) > 1e-12 or abs(report["micro"]["r"] - micro_r) > 1e-12:
        return f"micro {report['micro']} but recount gives p={micro_p} r={micro_r}"
    if abs(att["overall_recall_error"] - (1.0 - micro_r)) > 1e-12:
        return f"recall error {att['overall_recall_error']} != 1 - micro recall {micro_r}"
    if not (0.0 <= att["nel_error"] <= att["overall_recall_error"] + 1e-12
            and 0.0 <= att["rc_error"] <= att["overall_recall_error"] + 1e-12):
        return f"error shares {att} exceed the recall error"
    if sum(s["support"] for s in report["per_relation"].values()) != n_gold:
        return "per-relation supports do not sum to the gold count"
    for key in ("micro_f1", "macro_f1"):
        lo, hi = report["bootstrap"][key]
        if not 0.0 <= lo <= hi <= 1.0:
            return f"bootstrap {key} interval {lo, hi}"
    return None


def _run_evaluate(p, work, seconds, api, tracer, repeat_setup, max_units) -> Outcome:
    """Each pass is one `evaluate` and `attribute` job: its set-up is the
    catalog load, as in the CLI, so set-up samples spread over the run."""
    out = Outcome()
    first = None
    t_start = perf_counter()
    while _keep_going(t_start, seconds, out.attempted, max_units):
        if tracer:
            tracer.doc_index = out.attempted
        t0 = perf_counter()
        cat = api.load_catalog(work / "entities.tsv", work / "relations.tsv")
        t1 = perf_counter()
        report, pairs = _evaluate(api, cat, work, p, tracer)
        busy = perf_counter() - t1
        out.setup_s.append(t1 - t0)
        out.busy_s += busy
        out.latencies_s.append(busy / len(pairs))
        out.units += len(pairs)
        out.attempted += 1
        if first is None:
            first = report
            problem = check_report(report, pairs)
        else:
            problem = None if report == first else "report differs from the first pass"
        if problem:
            out.fail(f"pass {out.attempted}: {problem}")
    out.output = [json.dumps(first, sort_keys=True)]
    return out


# --- golden outputs ---------------------------------------------------------


def golden_path(workload: str) -> Path | None:
    name = {"decode-wide-beam": "decode-wide-beam.jsonl", "evaluate-corpus": "evaluate-corpus.json"}
    return GOLDEN_DIR / name[workload] if workload in name else None


def reference_output(workload: str, work: Path):
    """The default-seed output the golden file stores: the first
    GOLDEN_DOCS decoded records, or the evaluation report."""
    write_inputs(workload, "full", DEFAULT_SEED, work)
    spec = WORKLOADS[workload]
    if spec["kind"] == "decode":
        out = run(workload, "full", work, 0.0, max_units=GOLDEN_DOCS)
        return [json.loads(line) for line in out.output]
    out = run(workload, "full", work, 0.0, max_units=1)
    return json.loads(out.output[0])


def compare_json(actual, expected, where: str = "$") -> list[str]:
    """Differences between two JSON values; floats may differ by
    LOG_PROB_TOLERANCE. Never raises, whatever `expected` holds."""
    if isinstance(actual, float) and isinstance(expected, (int, float)) and not isinstance(expected, bool):
        return [] if abs(actual - expected) <= LOG_PROB_TOLERANCE else [f"{where}: {actual} != {expected}"]
    if type(actual) is not type(expected):
        return [f"{where}: {type(actual).__name__} != {type(expected).__name__}"]
    if isinstance(actual, dict):
        if actual.keys() != expected.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for k in actual for d in compare_json(actual[k], expected[k], f"{where}.{k}")]
    if isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [d for i, (a, e) in enumerate(zip(actual, expected)) for d in compare_json(a, e, f"{where}[{i}]")]
    return [] if actual == expected else [f"{where}: {actual!r} != {expected!r}"]


def load_golden(path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return json.loads(text)


def golden_problems(workload: str, work: Path, path: Path | None = None) -> list[str]:
    """Compare the default-seed output with the stored golden file. An
    unreadable or corrupted golden file is a reported problem."""
    path = path or golden_path(workload)
    actual = reference_output(workload, work)
    try:
        expected = load_golden(path)
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        return [f"golden file {path.name} unreadable: {exc}"]
    return compare_json(actual, expected)


def write_golden(workload: str, work: Path) -> Path:
    path = golden_path(workload)
    actual = reference_output(workload, work)
    if isinstance(actual, list):
        text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in actual)
    else:
        text = json.dumps(actual, sort_keys=True, indent=1) + "\n"
    path.write_text(text, encoding="utf-8")
    return path
