"""File formats: catalog TSV, occurrence-count TSV, document/prediction
JSON Lines, and the versioned binary trie artifact.

All text files are UTF-8 with LF line endings. The trie format is tool
private: readers refuse artifacts written by an incompatible version.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, TypeVar

import numpy as np

from .catalog import Catalog, CatalogError, TokenTrie, add_name
from .linearize import MentionedTriplet, Triplet, check_span
from .tokens import NUM_SPECIAL

log = logging.getLogger("factbeam")
T = TypeVar("T")

TRIE_MAGIC = b"FBTRIE03"  # bump the trailing digits on format changes
_TRIE_HEADER = struct.Struct("<q32s")  # node count, SHA-256 of the catalog file
# what a JSON escape such as "\\udc80" can put in a string and no UTF-8 output can hold
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


class TrieFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    triplets: tuple[MentionedTriplet, ...]

    def triplet_set(self) -> frozenset[Triplet]:
        return frozenset(mt.triplet for mt in self.triplets)


def _read_lines(path: str | Path, parse_line: Callable[[str], str | None]) -> None:
    """Run parse_line on each line of the UTF-8 text file at path, its
    newline kept (each format has its own blank-line rule).

    The one place an input line gets its location: a ValueError that
    parse_line raises, or a line that is not UTF-8, is raised again (its
    class kept) with "<path>:<line>: " before its message, and a message
    parse_line returns is logged as a warning with the same prefix. The
    file is read as bytes so that a bad byte is reported with its line.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                warning = parse_line(raw.decode("utf-8"))
            except ValueError as exc:
                if isinstance(exc, UnicodeDecodeError):
                    exc = ValueError("invalid UTF-8")
                exc.args = (f"{path}:{lineno}: {exc}",)
                raise exc from None
            if warning is not None:
                log.warning("%s:%d: %s", path, lineno, warning)


# --- catalog TSV: id<TAB>name[<TAB>ignored] ---------------------------------


def _read_catalog_file(path: str | Path, kind: str) -> tuple[tuple[str, ...], dict[str, int]]:
    """Read one catalog class file, rows in any id order, ids exactly
    0..N-1. Returns the names ordered by id and the name -> id map."""
    ids: dict[str, int] = {}
    names: dict[int, str] = {}

    def row(line: str) -> None:
        line = line.rstrip("\n")
        if not line:
            return
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise CatalogError("expected 2 or 3 tab-separated fields")
        # int() alone would also take signs, spaces, underscores and non-ASCII digits
        if not (parts[0].isascii() and parts[0].isdigit()):
            raise CatalogError(f"non-integer id {parts[0]!r}: expected ASCII digits 0-9")
        ident = int(parts[0])
        if ident in names:
            raise CatalogError(f"duplicate id {ident}")
        name = parts[1]
        if "\r" in name:  # a CRLF file would otherwise end every name in "\r"
            raise CatalogError(f"name {name!r} contains a carriage return")
        add_name(ids, name, kind, ident)
        names[ident] = name

    _read_lines(path, row)
    try:  # ids are distinct, so 0..N-1 all present means dense
        return tuple(names[i] for i in range(len(names))), ids
    except KeyError:
        raise CatalogError(f"{path}: ids are not dense 0..{len(names) - 1}") from None


def load_catalog(entity_file: str | Path, relation_file: str | Path) -> Catalog:
    entity_names, entity_ids = _read_catalog_file(entity_file, "entity")
    relation_names, relation_ids = _read_catalog_file(relation_file, "relation")
    return Catalog(entity_names, relation_names, entity_ids, relation_ids)


# --- occurrence counts TSV: relation_name<TAB>count ------------------------


def read_counts(path: str | Path, cat: Catalog) -> dict[int, int]:
    """Relation occurrence counts keyed by catalog relation id.

    Rows naming relations outside the catalog are skipped with a
    warning; they cannot affect triplets grounded in the catalog. A
    relation named on two rows is refused.
    """
    out: dict[int, int] = {}
    seen: set[str] = set()

    def row(line: str) -> str | None:
        line = line.rstrip("\n")
        if not line:
            return None
        name, _, raw = line.partition("\t")
        if name in seen:
            raise CatalogError(f"duplicate relation {name!r}")
        seen.add(name)
        if not (raw.isascii() and raw.isdigit()):
            raise CatalogError(f"non-integer count {raw!r}: expected ASCII digits 0-9")
        count = int(raw)
        rel = cat.relation_ids.get(name)
        if rel is None:
            return f"relation {name!r} not in catalog, skipped"
        out[rel] = count
        return None

    _read_lines(path, row)
    return out


# --- documents / predictions JSONL -----------------------------------------


def _span(raw, doc_id: str) -> tuple[int, int] | None:
    if raw is None:
        return None
    message = f"doc {doc_id!r}: span must be a [start, end] pair"
    # type() is int, not isinstance: a bool is not a position
    if not isinstance(raw, (list, tuple)) or len(raw) != 2 or not all(type(x) is int for x in raw):
        raise ValueError(message)
    return raw[0], raw[1]


def triplet_from_json(obj: Mapping, cat: Catalog, doc_id: str) -> MentionedTriplet:
    names = []
    for key, table, kind in (
        ("sub", cat.entity_ids, "entity"),
        ("rel", cat.relation_ids, "relation"),
        ("obj", cat.entity_ids, "entity"),
    ):
        name = obj.get(key)
        if not isinstance(name, str):
            raise ValueError(f"doc {doc_id!r}: triplet missing {key!r}")
        if not name.strip():  # before the lookup: a map may number a name it has not seen
            raise ValueError(f"doc {doc_id!r}: triplet {key!r} is a blank {kind} name")
        try:  # a subscript, not get(), for that map
            names.append(table[name])
        except KeyError:
            raise ValueError(f"doc {doc_id!r}: {kind} {name!r} not in catalog") from None
    return MentionedTriplet(
        Triplet(names[0], names[1], names[2]),
        _span(obj.get("sub_span"), doc_id),
        _span(obj.get("obj_span"), doc_id),
    )


def triplet_to_json(mt: MentionedTriplet, cat: Catalog) -> dict:
    t = mt.triplet
    out: dict = {
        "sub": cat.entity_name(t.subject),
        "rel": cat.relation_name(t.relation),
        "obj": cat.entity_name(t.object),
    }
    if mt.subject_span is not None:
        out["sub_span"] = list(mt.subject_span)
    if mt.object_span is not None:
        out["obj_span"] = list(mt.object_span)
    return out


def _triplet_objects(raw, field: str) -> list:
    if not isinstance(raw, list) or not all(isinstance(obj, dict) for obj in raw):
        raise ValueError(f'"{field}" must be a list of triplet objects')
    return raw


def prediction_record(
    doc_id: str, ranked: Iterable[tuple[frozenset[Triplet], float]], cat: Catalog, error: str | None = None
) -> dict:
    """The record `decode` writes for one document: a candidate per ranked
    (set, log-prob) pair, its triplets in id order (decoded sets are
    order-free, the file is not), and the error when decoding failed."""
    record: dict = {"id": doc_id, "candidates": [
        {"rank": rank, "log_prob": lp, "triplets": [triplet_to_json(MentionedTriplet(t), cat) for t in sorted(ts)]}
        for rank, (ts, lp) in enumerate(ranked, 1)
    ]}
    if error is not None:
        record["error"] = error
    return record


def triplet_lists(record: dict) -> list[list]:
    """The record's lists of triplet objects, checked: one per decoder
    candidate in rank order when it has "candidates" (ranks 1..n, as
    `decode` writes them), else its bare "triplets" list (absent: empty)."""
    if "candidates" not in record:
        return [_triplet_objects(record.get("triplets", []), "triplets")]
    candidates = record["candidates"]
    if not isinstance(candidates, list) or not all(
        isinstance(c, dict) and type(c.get("rank")) is int and isinstance(c.get("triplets"), list)
        for c in candidates
    ):
        raise ValueError('"candidates" must be objects with an integer "rank" and a "triplets" list')
    ranked = sorted(candidates, key=lambda c: c["rank"])
    for c in ranked[:1] + ranked[-1:]:
        if not 1 <= c["rank"] <= len(ranked):
            raise ValueError(f"rank {c['rank']} outside 1..{len(ranked)}")
    for c, d in zip(ranked, ranked[1:]):
        if c["rank"] == d["rank"]:
            raise ValueError(f"duplicate rank {c['rank']}")
    return [_triplet_objects(c["triplets"], "candidates[].triplets") for c in ranked]


def document_from_json(record: dict, cat: Catalog, doc_id: str) -> Document:
    text = record.get("input", "")
    if not isinstance(text, str):
        raise ValueError('"input" must be a string')
    if not text.isascii() and (bad := _LONE_SURROGATE.search(text)):
        raise ValueError(f'"input" holds the lone surrogate {bad.group()!r}')
    raw = _triplet_objects(record.get("triplets", []), "triplets")
    return Document(doc_id, text, tuple(triplet_from_json(obj, cat, doc_id) for obj in raw))


def read_documents(path: str | Path, cat: Catalog) -> list[Document]:
    records = read_jsonl(path, lambda doc_id, record: document_from_json(record, cat, doc_id))
    return list(records.values())


def read_prediction_sets(path: str | Path, cat: Catalog) -> dict[str, frozenset[Triplet]]:
    """Rank-1 triplet set per document id.

    Accepts decoder output (records with ranked "candidates") as well as
    plain dataset records (a bare "triplets" list).
    """

    def parse(doc_id: str, record: dict) -> frozenset[Triplet]:
        lists = triplet_lists(record)
        raw = lists[0] if lists else []
        return frozenset(triplet_from_json(obj, cat, doc_id).triplet for obj in raw)

    return read_jsonl(path, parse)


def read_mentions(path: str | Path) -> dict[str, list[tuple[int, int]]]:
    """Predicted mention spans per document: {"id", "spans": [[s, e], ...]},
    each span held to the rule for gold spans (0 <= s < e)."""

    def parse(doc_id: str, record: dict) -> list[tuple[int, int]]:
        raw = record.get("spans", [])
        if not isinstance(raw, list) or None in raw:
            raise ValueError('"spans" must be a list of [start, end] pairs')
        return [check_span(_span(s, doc_id)) for s in raw]

    return read_jsonl(path, parse)


def read_jsonl(path: str | Path, parse: Callable[[str, dict], T]) -> dict[str, T]:
    """One JSON object per non-blank line, each with an "id" (a string
    or an integer) unique in its file: `parse(id, record)` of each
    record, keyed by id in file order, the id as a string.

    The one place the id rule is checked. A ValueError that parse raises
    for a bad record is reported with the record's file:line.
    """
    out: dict[str, T] = {}

    def record(line: str) -> None:
        line = line.strip()
        if not line:
            return
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise ValueError("invalid JSON: nested too deeply") from None
        if not isinstance(obj, dict):
            raise ValueError("expected a JSON object")
        doc_id = obj.get("id")
        if type(doc_id) is not str:  # the one type test a string id costs
            if doc_id is None:
                raise ValueError('record has no "id"')
            if type(doc_id) is not int:  # type(), not isinstance: a bool is not an id
                raise ValueError('"id" must be a string or an integer')
            doc_id = str(doc_id)
        elif not doc_id.isascii() and (bad := _LONE_SURROGATE.search(doc_id)):
            raise ValueError(f'"id" holds the lone surrogate {bad.group()!r}')
        if doc_id in out:
            raise ValueError(f"duplicate id {doc_id!r}")
        out[doc_id] = parse(doc_id, obj)

    _read_lines(path, record)
    return out


def write_jsonl(path: str | Path, records: Iterable[Mapping]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def write_json(path: str | Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")


# --- binary trie artifact ---------------------------------------------------


def save_trie(trie: TokenTrie, path: str | Path, catalog: str | Path | None = None) -> None:
    """Write a byte-deterministic artifact: same trie and catalog file,
    same bytes. The header binds it to the catalog file the trie was built
    from by that file's SHA-256, all zero when no catalog is given."""
    digest = bytes(32) if catalog is None else bytes.fromhex(sha256_file(catalog))
    with open(path, "wb") as fh:
        fh.write(TRIE_MAGIC)
        fh.write(_TRIE_HEADER.pack(trie.node_count, digest))
        for arr in (trie.offsets, trie.terminal, trie.tokens):
            fh.write(arr)


def load_trie(path: str | Path, catalog: str | Path | None = None) -> TokenTrie:
    """Read an artifact, checking every invariant the trie relies on and,
    when a catalog file is given, that the artifact was saved bound to it.

    The arrays are used as loaded, so a corrupt file is refused here
    rather than misrouting or crashing a decode later. The binding
    covers the catalog file, not the arrays."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(TRIE_MAGIC)] != TRIE_MAGIC:
        raise TrieFormatError(
            f"{path}: not a trie artifact of this tool version "
            f"(expected header {TRIE_MAGIC!r})"
        )
    pos = len(TRIE_MAGIC) + _TRIE_HEADER.size
    if len(data) < pos:
        raise TrieFormatError(f"{path}: truncated trie artifact header")
    n, digest = _TRIE_HEADER.unpack_from(data, len(TRIE_MAGIC))
    if not 1 <= n <= np.iinfo(np.int32).max:  # node ids are int32
        raise TrieFormatError(f"{path}: bad node count {n}")
    size = pos + 4 * ((n + 1) + n + (n - 1))
    if len(data) != size:
        problem = "trailing bytes in" if len(data) > size else "truncated"
        raise TrieFormatError(f"{path}: {problem} trie artifact ({len(data)} bytes, expected {size})")
    offsets = np.frombuffer(data, np.int32, n + 1, pos)
    terminal = np.frombuffer(data, np.int32, n, pos + offsets.nbytes)
    tokens = np.frombuffer(data, np.int32, n - 1, pos + offsets.nbytes + terminal.nbytes)
    _check_trie_arrays(path, offsets, tokens, terminal)
    if catalog is not None and digest != bytes.fromhex(sha256_file(catalog)):
        raise TrieFormatError(
            f"{path}: not built by factbeam build-trie from {catalog}; rebuild it with factbeam build-trie"
        )
    return TokenTrie(offsets, tokens, terminal)


def _check_trie_arrays(path, offsets, tokens, terminal) -> None:
    n_edges = len(tokens)
    if offsets[0] != 0 or offsets[-1] != n_edges or np.any(np.diff(offsets) < 0):
        raise TrieFormatError(f"{path}: edge offsets are not a monotone 0..{n_edges} range")
    # node p's children are nodes offsets[p] + 1 ..: each node then has one
    # parent, and with every parent below its children the edges form one tree
    # (a leaf's offset is the next inner node's, or n - 1, so a leaf never fails alone)
    if np.any(offsets[:-1] < np.arange(len(terminal), dtype=np.int32)):
        raise TrieFormatError(f"{path}: a child id below its parent's")
    if np.any(tokens < NUM_SPECIAL):  # names never tokenize to marker ids
        raise TrieFormatError(f"{path}: edge token {tokens.min()} below the first content id {NUM_SPECIAL}")
    node_start = np.zeros(n_edges, dtype=bool)
    node_start[offsets[:-1][offsets[:-1] < n_edges]] = True
    if np.any((np.diff(tokens) <= 0) & ~node_start[1:]):
        raise TrieFormatError(f"{path}: edge tokens not strictly ascending within a node")
    ids = np.sort(terminal[terminal >= 0])
    if np.any(terminal < -1) or np.any(ids[1:] == ids[:-1]):
        raise TrieFormatError(f"{path}: terminal ids negative or repeated")


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
