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
from .catalog import Catalog, TokenTrie, build_trie
from .decoder import DecodeConfig, InvalidSequence, NoCompleteHypothesis, Scorer, decode
from .fileio import (
    Document,
    document_from_json,
    load_catalog,
    prediction_record,
    read_counts,
    read_documents,
    read_jsonl,
    read_mentions,
    read_prediction_sets,
    save_trie,
    load_trie,
    log,
    sha256_file,
    write_json,
    write_jsonl,
)
from .linearize import linearize, order_triplets
from .metrics import (
    BOOTSTRAP_LEVEL, EvalPair, bootstrap_ci, bucket_range, bucketed_f1, macro_scores, micro_scores, score_report
)
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
        prefix = f".{path.name}."
        for old in path.parent.glob(".*.tmp"):  # delete those that killed runs left
            pid = old.name[len(prefix) : -len(".tmp")]
            try:
                if old.name.startswith(prefix) and pid.isascii() and pid.isdigit():
                    os.kill(int(pid), 0)
            except ProcessLookupError:
                old.unlink(missing_ok=True)
            except (PermissionError, OverflowError):  # another user's run, or not a pid
                pass
        temp = path.with_name(f"{prefix}{os.getpid()}.tmp")
        staged.append((temp, path))
        return temp

    try:
        yield stage
        for temp, path in staged:
            os.replace(temp, path)
    finally:
        for temp, _ in staged:
            temp.unlink(missing_ok=True)


Stage = Callable[[Path], Path]


# --- build-trie -------------------------------------------------------------


def cmd_build_trie(args: argparse.Namespace, stage: Stage) -> dict[str, str]:
    tok = ByteTokenizer()
    cat = load_catalog(args.entities, args.relations)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats: dict = {}
    for kind, names, catalog in (
        ("entity", cat.entity_names, args.entities), ("relation", cat.relation_names, args.relations)
    ):
        trie = build_trie(enumerate(names), tok)
        path = stage(out_dir / f"{kind}.trie")
        save_trie(trie, path, catalog)
        stats[kind] = {
            "names": len(names),
            "nodes": trie.node_count,
            "bytes": trie.approx_bytes(),
            "sha256": sha256_file(path),
        }
    write_json(stage(out_dir / "stats.json"), stats)
    return {"entities": args.entities, "relations": args.relations}


# --- decode -----------------------------------------------------------------


def _scorer_factory(
    spec: str, args: argparse.Namespace, cat: Catalog, tok: ByteTokenizer
) -> tuple[Callable[[Document], Scorer], str | None]:
    """Resolve a scorer spec: uniform | random | oracle:FILE | ngram:FILE.
    Returns the per-document scorer and the data file it read, if any."""
    if spec == "uniform":
        scorer = UniformScorer(tok.vocab_size)
        return lambda doc: scorer, None
    if spec == "random":
        scorer = RandomScorer(args.seed, tok.vocab_size)
        return lambda doc: scorer, None
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
                raise ValueError(f"{path}: no record for document {doc.doc_id!r}")
            return OracleScorer(target, tok.vocab_size)

        return for_doc, path
    corpus = [
        tok.encode(doc.text) + linearize(order_triplets(doc.triplets), cat, tok)
        for doc in docs
    ]
    scorer = train_ngram(corpus, n=3 if args.ngram_order is None else args.ngram_order, tokenizer=tok)
    return lambda doc: scorer, path


def cmd_decode(args: argparse.Namespace, stage: Stage) -> dict[str, str | Path]:
    if args.ngram_order is not None and not args.scorer.startswith("ngram:"):
        raise ValueError("--ngram-order needs --scorer ngram:FILE")
    tok = ByteTokenizer()
    cat = load_catalog(args.entities, args.relations)
    inputs: dict[str, str | Path] = {
        "input": args.input, "entities": args.entities, "relations": args.relations
    }
    tries = []
    for kind, names, catalog in (
        ("entity", cat.entity_names, args.entities), ("relation", cat.relation_names, args.relations)
    ):
        if args.tries:
            path = inputs[f"{kind}_trie"] = Path(args.tries) / f"{kind}.trie"
            tries.append(_load_catalog_trie(path, kind, names, catalog))
        else:
            tries.append(build_trie(enumerate(names), tok))
    cfg = DecodeConfig(
        beam_size=args.beam_size,
        max_len=args.max_len,
        length_alpha=args.length_alpha,
        allow_empty_set=not args.no_empty_set,
        max_triplets=args.max_triplets,
    )
    docs = read_documents(args.input, cat)
    for_doc, scorer_data = _scorer_factory(args.scorer, args, cat, tok)
    if scorer_data:
        inputs["scorer_data"] = scorer_data

    def run(doc: Document) -> dict:
        try:
            ranked = decode(doc.text, for_doc(doc), cat, tuple(tries), cfg, tok)
        except NoCompleteHypothesis as exc:
            return prediction_record(doc.doc_id, [], cat, str(exc))
        except InvalidSequence as exc:  # only --tries arrays can spell a name the catalog lacks
            raise ValueError(f"{args.tries}: {exc}") from None
        return prediction_record(doc.doc_id, ranked, cat)

    write_jsonl(stage(Path(args.out)), map(run, docs))
    return inputs


def _load_catalog_trie(path: Path, kind: str, names: Sequence[str], catalog: str) -> TokenTrie:
    trie = load_trie(path, catalog)
    if len(trie) != len(names):
        raise ValueError(f"{path}: trie holds {len(trie)} names, the {kind} catalog {len(names)}")
    top = int(np.max(trie.tokens, initial=-1))
    if top >= ByteTokenizer.vocab_size:
        raise ValueError(f"{path}: edge token {top} outside the tokenizer's {ByteTokenizer.vocab_size} ids")
    return trie


# --- evaluate -----------------------------------------------------------------


def _eval_pairs(gold_docs: list[Document], pred_path: str, cat: Catalog) -> list[EvalPair]:
    """One (predicted, gold) pair per gold document."""
    pred_sets = read_prediction_sets(pred_path, cat)
    pairs = [
        EvalPair(doc.doc_id, pred_sets.get(doc.doc_id, frozenset()), doc.triplet_set())
        for doc in gold_docs
    ]
    extra = pred_sets.keys() - {doc.doc_id for doc in gold_docs}
    if extra:
        log.warning("%s: %d predicted document(s) absent from gold, ignored", pred_path, len(extra))
    return pairs


def _prf_json(score) -> dict:  # a PRF, or a RelationScore less its support
    return {"p": score.p, "r": score.r, "f1": score.f1, "flags": sorted(score.flags)}


def _write_bucket_table(path: Path, buckets: Mapping[int, tuple[float, int]]) -> None:
    """One row per bucket: its occurrence-count range, F1 and relation count."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bucket\tcount_low\tcount_high\tf1\tn_relations\n")
        for bucket, (f1, n_relations) in sorted(buckets.items()):
            low, high = bucket_range(bucket)
            fh.write(f"{bucket}\t{low}\t{high}\t{f1:.6f}\t{n_relations}\n")


def cmd_evaluate(args: argparse.Namespace, stage: Stage) -> dict[str, str]:
    if args.bucket_table and not args.counts:
        raise ValueError("--bucket-table needs --counts")
    cat = load_catalog(args.entities, args.relations)
    pairs = _eval_pairs(read_documents(args.gold, cat), args.pred, cat)
    scores = score_report(pairs, cat, args.macro_mode)
    report: dict = {
        "n_documents": len(pairs),
        "micro": _prf_json(scores.micro),
        "macro": _prf_json(scores.macro),
        "per_relation": {
            cat.relation_name(rel): {**_prf_json(s), "support": s.support}
            for rel, s in scores.per_relation.items()
        },
    }
    if args.bootstrap and not pairs:
        log.warning("%s: no gold documents, bootstrap skipped", args.gold)
    elif args.bootstrap:
        report["bootstrap"] = {
            "B": args.bootstrap,
            "level": BOOTSTRAP_LEVEL,
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
    write_json(stage(out), report)
    if buckets is not None:
        table = Path(args.bucket_table) if args.bucket_table else out.with_suffix(".buckets.tsv")
        _write_bucket_table(stage(table), buckets)
    return inputs


# --- attribute ----------------------------------------------------------------


class _Numbering(dict):
    """One class's name -> id map for `attribute` without catalog files: a
    name gets the next id when first looked up (`triplet_from_json` has
    refused a blank one by then)."""

    def __missing__(self, name: str) -> int:
        self[name] = len(self)
        return self[name]


def _spanned_documents(path: str, cat: Catalog) -> list[Document]:
    """Gold documents for `attribute --mentions`: a triplet with neither
    mention span is refused at its record's line, named by its names."""

    def parse(doc_id: str, record: dict) -> Document:
        doc = document_from_json(record, cat, doc_id)
        for obj in record.get("triplets", []):
            if obj.get("sub_span") is None and obj.get("obj_span") is None:
                names = obj["sub"], obj["rel"], obj["obj"]
                raise ValueError(f"doc {doc_id!r}: gold triplet {names} carries no mention spans")
        return doc

    return list(read_jsonl(path, parse).values())


def cmd_attribute(args: argparse.Namespace, stage: Stage) -> dict[str, str]:
    if bool(args.entities) != bool(args.relations):
        raise ValueError("--entities and --relations go together")
    if args.mode and not args.mentions:
        raise ValueError("--mode needs --mentions")
    inputs = {"gold": args.gold, "pred": args.pred}
    if args.entities:
        cat = load_catalog(args.entities, args.relations)
        inputs.update(entities=args.entities, relations=args.relations)
    else:  # attribution reads ids only, never names back from the catalog
        cat = Catalog((), (), _Numbering(), _Numbering())
    gold_docs = (_spanned_documents if args.mentions else read_documents)(args.gold, cat)
    pairs = _eval_pairs(gold_docs, args.pred, cat)
    nel, rc = nel_rc_errors(pairs)
    report: dict = {
        "n_gold_triplets": sum(len(p.gold) for p in pairs),
        "nel_error": nel,
        "rc_error": rc,
        "overall_recall_error": recall_error(pairs),
    }
    if args.mentions:
        mentions = read_mentions(args.mentions)
        extra = mentions.keys() - {doc.doc_id for doc in gold_docs}
        if extra:
            log.warning("%s: %d mentioned document(s) absent from gold, ignored", args.mentions, len(extra))
        mode = args.mode or "exact"
        report[f"ner_{mode}"] = ner_error(
            [doc.triplets for doc in gold_docs],
            [mentions.get(doc.doc_id, []) for doc in gold_docs],
            mode,
        )
        inputs["mentions"] = args.mentions
    write_json(stage(Path(args.out)), report)
    return inputs


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
    p.add_argument("--max-len", type=int, default=DecodeConfig.max_len)
    p.add_argument("--length-alpha", type=float, default=DecodeConfig.length_alpha)
    p.add_argument("--max-triplets", type=int, default=None)
    p.add_argument("--no-empty-set", action="store_true", help="forbid the empty prediction")
    p.add_argument("--ngram-order", type=int, help="order of the ngram: scorer (default: 3)")
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
    p.add_argument("--mode", choices=("exact", "partial"), help="mention matching for --mentions (default: exact)")
    p.add_argument("--out", required=True, help="report JSON")
    _add_common(p)
    p.set_defaults(func=cmd_attribute)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand: it stages its outputs and returns the files it
    read, and the manifest records them with the flags and the wall time."""
    args = build_parser().parse_args(argv)
    if args.manifest_out:
        manifest_path = Path(args.manifest_out)
    elif args.subcommand == "build-trie":
        manifest_path = Path(args.out_dir) / "manifest.json"
    else:
        out = Path(args.out)
        manifest_path = out.with_name(out.name + ".manifest.json")
    start = time.perf_counter()
    try:
        with _transaction() as stage:
            inputs = args.func(args, stage)
            manifest = {
                "tool": "factbeam",
                "version": __version__,
                "subcommand": args.subcommand,
                "seed": args.seed,
                "seconds": time.perf_counter() - start,
                "config": {k: v for k, v in vars(args).items() if k != "func"},
                "inputs": {
                    label: {"path": str(p), "sha256": sha256_file(p)} for label, p in inputs.items()
                },
            }
            write_json(stage(manifest_path), manifest)
    except (ValueError, OSError) as exc:
        print(f"factbeam: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
