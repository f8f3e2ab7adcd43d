"""Command-line front end: build-trie, decode, evaluate, attribute.

Every subcommand is deterministic given (inputs, flags, seed), records a
run manifest next to its outputs, and writes its outputs atomically: a
failed run leaves the previous files as they were, so exit code 0 means
"everything written".
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import __version__
from .attribution import ner_error, nel_rc_errors, recall_error
from .catalog import Catalog, TokenTrie, add_name, build_trie, names_digest
from .decoder import DecodeConfig, NoCompleteHypothesis, Scorer, decode
from .fileio import (
    Document,
    load_catalog,
    read_counts,
    read_documents,
    read_jsonl,
    read_mentions,
    read_prediction_sets,
    save_trie,
    load_trie,
    sha256_file,
    triplet_lists,
    triplet_to_json,
    write_json,
    write_jsonl,
)
from .linearize import MentionedTriplet, linearize, order_triplets
from .metrics import EvalPair, PRF, bootstrap_ci, bucketed_f1, macro_scores, micro_scores, score_report
from .scorers import OracleScorer, RandomScorer, UniformScorer, train_ngram
from .tokens import ByteTokenizer


@contextmanager
def _transaction():
    """Stages outputs: `stage(path)` names a temp file beside path to write
    instead. On success every temp file replaces its path; on any failure
    the temp files are removed and the paths keep their previous contents.
    Two outputs naming one file are refused before anything is replaced."""
    staged: list[tuple[Path, Path]] = []

    def stage(path: Path) -> Path:
        if any(path.resolve() == target.resolve() for _, target in staged):
            raise ValueError(f"{path}: named for two outputs")
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        staged.append((temp, path))
        return temp

    try:
        yield stage
        for temp, path in staged:
            os.replace(temp, path)
    finally:
        for temp, _ in staged:
            temp.unlink(missing_ok=True)


def _write_manifest(
    path: Path,
    stage: Callable[[Path], Path],
    subcommand: str,
    config: Mapping,
    inputs: Mapping[str, str | Path],
    seed: int,
) -> None:
    manifest = {
        "tool": "factbeam",
        "version": __version__,
        "subcommand": subcommand,
        "seed": seed,
        "config": {k: (str(v) if isinstance(v, Path) else v) for k, v in config.items()},
        "inputs": {
            label: {"path": str(p), "sha256": sha256_file(p)} for label, p in inputs.items()
        },
    }
    write_json(stage(path), manifest)


def _manifest_path(args: argparse.Namespace, default: Path) -> Path:
    return Path(args.manifest_out) if args.manifest_out else default


# --- build-trie -------------------------------------------------------------


def cmd_build_trie(args: argparse.Namespace) -> int:
    tok = ByteTokenizer()
    cat = load_catalog(args.entities, args.relations)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats: dict = {}
    tries: dict[str, tuple[TokenTrie, Sequence[str]]] = {}
    for kind, names in (("entity", cat.entity_names), ("relation", cat.relation_names)):
        start = time.perf_counter()
        trie = build_trie(enumerate(names), tok)
        stats[kind] = {
            "names": len(names),
            "nodes": trie.node_count,
            "bytes": trie.approx_bytes(),
            "build_seconds": time.perf_counter() - start,
        }
        tries[kind] = trie, names
    with _transaction() as stage:
        for kind, (trie, names) in tries.items():
            path = stage(out_dir / f"{kind}.trie")
            save_trie(trie, path, names_digest(enumerate(names)))
            stats[kind]["sha256"] = sha256_file(path)
        write_json(stage(out_dir / "stats.json"), stats)
        _write_manifest(
            _manifest_path(args, out_dir / "manifest.json"),
            stage,
            "build-trie",
            {"out_dir": str(out_dir)},
            {"entities": args.entities, "relations": args.relations},
            args.seed,
        )
    return 0


# --- decode -----------------------------------------------------------------


def _scorer_factory(
    spec: str, args: argparse.Namespace, cat: Catalog, tok: ByteTokenizer
) -> Callable[[Document], Scorer]:
    """Resolve a scorer spec: uniform | random | oracle:FILE | ngram:FILE."""
    if spec == "uniform":
        scorer = UniformScorer(tok.vocab_size)
        return lambda doc: scorer
    if spec == "random":
        scorer = RandomScorer(args.seed, tok.vocab_size)
        return lambda doc: scorer
    kind, sep, path = spec.partition(":")
    if not sep or not path or kind not in ("oracle", "ngram"):
        raise ValueError(
            f"unknown scorer spec {spec!r}; expected uniform, random, oracle:FILE or ngram:FILE"
        )
    docs = read_documents(path, cat)
    if kind == "oracle":
        targets = {
            doc.doc_id: linearize(order_triplets(doc.triplets), cat, tok) for doc in docs
        }

        def for_doc(doc: Document) -> Scorer:
            target = targets.get(doc.doc_id)
            if target is None:
                raise ValueError(f"oracle file has no record for document {doc.doc_id!r}")
            return OracleScorer(target, tok.vocab_size)

        return for_doc
    corpus = [
        tok.encode(doc.text) + linearize(order_triplets(doc.triplets), cat, tok)
        for doc in docs
    ]
    scorer = train_ngram(corpus, n=args.ngram_order, tokenizer=tok)
    return lambda doc: scorer


def cmd_decode(args: argparse.Namespace) -> int:
    tok = ByteTokenizer()
    cat = load_catalog(args.entities, args.relations)
    if args.tries:
        tries = tuple(
            _load_catalog_trie(Path(args.tries) / f"{kind}.trie", kind, names)
            for kind, names in (("entity", cat.entity_names), ("relation", cat.relation_names))
        )
    else:
        tries = (
            build_trie(enumerate(cat.entity_names), tok),
            build_trie(enumerate(cat.relation_names), tok),
        )
    cfg = DecodeConfig(
        beam_size=args.beam_size,
        max_len=args.max_len,
        length_alpha=args.length_alpha,
        allow_empty_set=not args.no_empty_set,
        max_triplets=args.max_triplets,
    )
    docs = read_documents(args.input, cat)
    for_doc = _scorer_factory(args.scorer, args, cat, tok)

    def run(doc: Document) -> dict:
        record: dict = {"id": doc.doc_id}
        try:
            ranked = decode(doc.text, for_doc(doc), cat, tries, cfg, tok)
        except NoCompleteHypothesis as exc:
            record["candidates"] = []
            record["error"] = str(exc)
            return record
        record["candidates"] = [
            {
                "rank": rank,
                "log_prob": lp,
                # decoded sets are order-free; emit in id order for stable files
                "triplets": [
                    triplet_to_json(MentionedTriplet(t), cat)
                    for t in sorted(ts)
                ],
            }
            for rank, (ts, lp) in enumerate(ranked, 1)
        ]
        return record

    out = Path(args.out)
    with _transaction() as stage:
        write_jsonl(stage(out), map(run, docs))
        _write_manifest(
            _manifest_path(args, out.with_name(out.name + ".manifest.json")),
            stage,
            "decode",
            {
                "scorer": args.scorer,
                "beam_size": args.beam_size,
                "max_len": args.max_len,
                "length_alpha": args.length_alpha,
                "allow_empty_set": not args.no_empty_set,
                "max_triplets": args.max_triplets,
                "ngram_order": args.ngram_order,
            },
            _decode_inputs(args),
            args.seed,
        )
    return 0


def _load_catalog_trie(path: Path, kind: str, names: Sequence[str]) -> TokenTrie:
    trie = load_trie(path)
    if len(trie) != len(names):
        raise ValueError(f"{path}: trie holds {len(trie)} names, the {kind} catalog {len(names)}")
    if trie.names_sha256 != names_digest(enumerate(names)):
        raise ValueError(f"{path}: trie was built from other {kind} names than the catalog's")
    # the digest covers the names, not the arrays
    top = int(np.max(trie.tokens, initial=-1))
    if top >= ByteTokenizer.vocab_size:
        raise ValueError(f"{path}: edge token {top} outside the tokenizer's {ByteTokenizer.vocab_size} ids")
    return trie


def _decode_inputs(args: argparse.Namespace) -> dict[str, str]:
    inputs = {"input": args.input, "entities": args.entities, "relations": args.relations}
    _, sep, path = args.scorer.partition(":")
    if sep and path:
        inputs["scorer_data"] = path
    return inputs


# --- evaluate -----------------------------------------------------------------


def _eval_pairs(args: argparse.Namespace, cat: Catalog) -> tuple[list[Document], list[EvalPair]]:
    """The gold documents and one (predicted, gold) pair per gold document."""
    gold_docs = read_documents(args.gold, cat)
    pred_sets = read_prediction_sets(args.pred, cat)
    pairs = [
        EvalPair(doc.doc_id, pred_sets.get(doc.doc_id, frozenset()), doc.triplet_set())
        for doc in gold_docs
    ]
    extra = pred_sets.keys() - {doc.doc_id for doc in gold_docs}
    if extra:
        print(
            f"warning: {len(extra)} predicted document(s) absent from gold, ignored",
            file=sys.stderr,
        )
    return gold_docs, pairs


def _prf_json(prf: PRF) -> dict:
    return {"p": prf.p, "r": prf.r, "f1": prf.f1, "flags": sorted(prf.flags)}


def _write_bucket_table(path: Path, buckets: Mapping[int, tuple[float, int]]) -> None:
    """One row per bucket: its occurrence-count range, F1 and relation count."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bucket\tcount_low\tcount_high\tf1\tn_relations\n")
        for bucket, (f1, n_relations) in sorted(buckets.items()):
            low, high = (2**bucket, 2 ** (bucket + 1) - 1) if bucket >= 0 else (0, 0)
            fh.write(f"{bucket}\t{low}\t{high}\t{f1:.6f}\t{n_relations}\n")


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.bucket_table and not args.counts:
        raise ValueError("--bucket-table needs --counts")
    cat = load_catalog(args.entities, args.relations)
    _, pairs = _eval_pairs(args, cat)
    scores = score_report(pairs, cat, args.macro_mode)
    report: dict = {
        "n_documents": len(pairs),
        "micro": _prf_json(scores.micro),
        "macro": _prf_json(scores.macro),
        "per_relation": {
            cat.relation_name(rel): {
                "p": s.p,
                "r": s.r,
                "f1": s.f1,
                "support": s.support,
                "flags": sorted(s.flags),
            }
            for rel, s in scores.per_relation.items()
        },
    }
    if args.bootstrap and pairs:
        report["bootstrap"] = {
            "B": args.bootstrap,
            "level": 0.95,
            "micro_f1": list(
                bootstrap_ci(pairs, lambda ps: micro_scores(ps).f1, args.bootstrap, seed=args.seed)
            ),
            "macro_f1": list(
                bootstrap_ci(
                    pairs,
                    lambda ps: macro_scores(ps, cat, args.macro_mode).f1,
                    args.bootstrap,
                    seed=args.seed,
                )
            ),
        }
    inputs = {"gold": args.gold, "pred": args.pred, "entities": args.entities, "relations": args.relations}
    buckets = None
    if args.counts:
        buckets = bucketed_f1(pairs, read_counts(args.counts, cat))
        inputs["counts"] = args.counts
    out = Path(args.out)
    with _transaction() as stage:
        write_json(stage(out), report)
        if buckets is not None:
            table = Path(args.bucket_table) if args.bucket_table else out.with_suffix(".buckets.tsv")
            _write_bucket_table(stage(table), buckets)
        _write_manifest(
            _manifest_path(args, out.with_name(out.name + ".manifest.json")),
            stage,
            "evaluate",
            {"macro_mode": args.macro_mode, "bootstrap": args.bootstrap},
            inputs,
            args.seed,
        )
    return 0


# --- attribute ----------------------------------------------------------------


def _implicit_catalog(gold_path: str, pred_path: str) -> Catalog:
    """Catalog built from every name in the gold and prediction files.

    Attribution compares triplets by identity only, so any consistent
    name -> id assignment works when no catalog files are given.
    """
    ids: dict[str, dict[str, int]] = {"entity": {}, "relation": {}}

    def collect(record: dict) -> None:
        for triplets in triplet_lists(record):
            for obj in triplets:
                for key, kind in (("sub", "entity"), ("obj", "entity"), ("rel", "relation")):
                    name = str(obj.get(key))
                    if name not in ids[kind]:
                        add_name(ids[kind], name, kind, len(ids[kind]))

    for path in (gold_path, pred_path):
        read_jsonl(path, collect)
    entity_ids, relation_ids = ids["entity"], ids["relation"]
    return Catalog(tuple(entity_ids), tuple(relation_ids), entity_ids, relation_ids)


def cmd_attribute(args: argparse.Namespace) -> int:
    if args.entities and args.relations:
        cat = load_catalog(args.entities, args.relations)
    else:
        cat = _implicit_catalog(args.gold, args.pred)
    gold_docs, pairs = _eval_pairs(args, cat)
    nel, rc = nel_rc_errors(pairs)
    report: dict = {
        "n_gold_triplets": sum(len(p.gold) for p in pairs),
        "nel_error": nel,
        "rc_error": rc,
        "overall_recall_error": recall_error(pairs),
    }
    inputs = {"gold": args.gold, "pred": args.pred}
    if args.mentions:
        mentions = read_mentions(args.mentions)
        report[f"ner_{args.mode}"] = ner_error(
            [doc.triplets for doc in gold_docs],
            [mentions.get(doc.doc_id, []) for doc in gold_docs],
            args.mode,
        )
        inputs["mentions"] = args.mentions
    out = Path(args.out)
    with _transaction() as stage:
        write_json(stage(out), report)
        _write_manifest(
            _manifest_path(args, out.with_name(out.name + ".manifest.json")),
            stage,
            "attribute",
            {"mode": args.mode if args.mentions else None},
            inputs,
            args.seed,
        )
    return 0


# --- argument parsing ---------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed, recorded in the manifest")
    p.add_argument("--manifest-out", help="manifest path (default: next to the output)")


def _add_catalog_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--entities", required=required, help="entity catalog TSV")
    p.add_argument("--relations", required=required, help="relation catalog TSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factbeam",
        description="Constrained triplet decoding and evaluation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"factbeam {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build-trie", help="build and serialize catalog tries")
    _add_catalog_flags(p)
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_build_trie)

    p = sub.add_parser("decode", help="constrained beam decode of input documents")
    p.add_argument("--input", required=True, help="documents JSONL ({id, input})")
    _add_catalog_flags(p)
    p.add_argument("--tries", help="directory with prebuilt entity.trie/relation.trie")
    p.add_argument(
        "--scorer",
        required=True,
        help="uniform | random | oracle:FILE | ngram:FILE",
    )
    p.add_argument("-k", "--beam-size", type=int, default=10)
    p.add_argument("--max-len", type=int, default=256)
    p.add_argument("--length-alpha", type=float, default=0.0)
    p.add_argument("--max-triplets", type=int, default=None)
    p.add_argument("--no-empty-set", action="store_true", help="forbid the empty prediction")
    p.add_argument("--ngram-order", type=int, default=3)
    p.add_argument("--out", required=True, help="predictions JSONL")
    _add_common(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("evaluate", help="micro/macro scores for predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    _add_catalog_flags(p)
    p.add_argument(
        "--counts", help="relation occurrence TSV (training split); also writes the per-bucket table"
    )
    p.add_argument("--bucket-table", help="bucket table path (default: <out>.buckets.tsv)")
    p.add_argument("--bootstrap", type=int, default=0, metavar="B")
    p.add_argument("--macro-mode", choices=("zero", "exclude"), default="zero")
    p.add_argument("--out", required=True, help="report JSON")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("attribute", help="NER/NEL/RC recall-error decomposition")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    _add_catalog_flags(p, required=False)
    p.add_argument("--mentions", help="predicted mention spans JSONL ({id, spans})")
    p.add_argument("--mode", choices=("exact", "partial"), default="exact")
    p.add_argument("--out", required=True, help="report JSON")
    _add_common(p)
    p.set_defaults(func=cmd_attribute)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"factbeam: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
