"""File formats: catalog TSV, occurrence-count TSV, document/prediction
JSON Lines, and the versioned binary trie artifact.

All text files are UTF-8 with LF line endings. The trie format is tool
private: readers refuse artifacts written by an incompatible version.
"""

from __future__ import annotations

import hashlib
import json
import logging
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .catalog import Catalog, CatalogError, TokenTrie, add_name
from .linearize import MentionedTriplet, Triplet
from .tokens import NUM_SPECIAL

log = logging.getLogger("factbeam")

TRIE_MAGIC = b"FBTRIE02"  # bump the trailing digits on format changes
_TRIE_HEADER = struct.Struct("<q32s")  # node count, catalog.names_digest of the names


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
        ident = table.get(name)
        if ident is None:
            raise ValueError(f"doc {doc_id!r}: {kind} {name!r} not in catalog")
        names.append(ident)
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


def _unique_ids() -> Callable[[dict], str]:
    """Record check: every record carries an "id", and no id repeats.
    The check returns the id as a string."""
    seen: set[str] = set()

    def check(record: dict) -> str:
        if record.get("id") is None:
            raise ValueError('record has no "id"')
        doc_id = str(record["id"])
        if doc_id in seen:
            raise ValueError(f"duplicate id {doc_id!r}")
        seen.add(doc_id)
        return doc_id

    return check


def _triplet_objects(raw, field: str) -> list:
    if not isinstance(raw, list) or not all(isinstance(obj, dict) for obj in raw):
        raise ValueError(f'"{field}" must be a list of triplet objects')
    return raw


def triplet_lists(record: dict) -> list[list]:
    """The record's lists of triplet objects, checked: one per decoder
    candidate in rank order when it has "candidates", else its bare
    "triplets" list (absent: empty)."""
    if "candidates" not in record:
        return [_triplet_objects(record.get("triplets", []), "triplets")]
    candidates = record["candidates"]
    if not isinstance(candidates, list) or not all(
        isinstance(c, dict) and type(c.get("rank")) is int and isinstance(c.get("triplets"), list)
        for c in candidates
    ):
        raise ValueError('"candidates" must be objects with an integer "rank" and a "triplets" list')
    ranked = sorted(candidates, key=lambda c: c["rank"])
    return [_triplet_objects(c["triplets"], "candidates[].triplets") for c in ranked]


def read_documents(path: str | Path, cat: Catalog) -> list[Document]:
    unique_id = _unique_ids()

    def parse(record: dict) -> Document:
        doc_id = unique_id(record)
        text = record.get("input", "")
        if not isinstance(text, str):
            raise ValueError('"input" must be a string')
        raw = _triplet_objects(record.get("triplets", []), "triplets")
        triplets = tuple(triplet_from_json(obj, cat, doc_id) for obj in raw)
        return Document(doc_id, text, triplets)

    return read_jsonl(path, parse)


def read_prediction_sets(path: str | Path, cat: Catalog) -> dict[str, frozenset[Triplet]]:
    """Rank-1 triplet set per document id.

    Accepts decoder output (records with ranked "candidates") as well as
    plain dataset records (a bare "triplets" list).
    """
    unique_id = _unique_ids()

    def parse(record: dict) -> tuple[str, frozenset[Triplet]]:
        doc_id = unique_id(record)
        lists = triplet_lists(record)
        raw = lists[0] if lists else []
        return doc_id, frozenset(triplet_from_json(obj, cat, doc_id).triplet for obj in raw)

    return dict(read_jsonl(path, parse))


def read_mentions(path: str | Path) -> dict[str, list[tuple[int, int]]]:
    """Predicted mention spans per document: {"id", "spans": [[s, e], ...]}."""
    unique_id = _unique_ids()

    def parse(record: dict) -> tuple[str, list[tuple[int, int]]]:
        doc_id = unique_id(record)
        raw = record.get("spans", [])
        if not isinstance(raw, list):
            raise ValueError('"spans" must be a list of [start, end] pairs')
        spans = [_span(s, doc_id) for s in raw]
        return doc_id, [s for s in spans if s is not None]

    return dict(read_jsonl(path, parse))


def read_jsonl(path: str | Path, parse: Callable[[dict], object] | None = None) -> list:
    """One JSON object per non-blank line.

    `parse`, when given, turns each record into the item returned in its
    place and raises ValueError for a bad one; the error is reported
    with the record's file:line.
    """
    out: list = []

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
        out.append(obj if parse is None else parse(obj))

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


def save_trie(trie: TokenTrie, path: str | Path, names_sha256: bytes | None = None) -> None:
    """Write a byte-deterministic artifact: same trie, same bytes.

    names_sha256 (default: the trie's own) is the catalog.names_digest
    that binds the artifact to the names it was built from.
    """
    digest = trie.names_sha256 if names_sha256 is None else names_sha256
    with open(path, "wb") as fh:
        fh.write(TRIE_MAGIC)
        fh.write(_TRIE_HEADER.pack(trie.node_count, digest))
        for arr in (trie.offsets, trie.terminal, trie.tokens):
            fh.write(arr)


def load_trie(path: str | Path) -> TokenTrie:
    """Read an artifact, checking every invariant the trie relies on.

    The arrays are used as loaded, so a corrupt file is refused here
    rather than misrouting or crashing a decode later.
    """
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
    if n < 1:
        raise TrieFormatError(f"{path}: bad node count {n}")
    size = pos + 4 * ((n + 1) + n + (n - 1))
    if len(data) != size:
        problem = "trailing bytes in" if len(data) > size else "truncated"
        raise TrieFormatError(f"{path}: {problem} trie artifact ({len(data)} bytes, expected {size})")
    offsets = np.frombuffer(data, np.int32, n + 1, pos)
    terminal = np.frombuffer(data, np.int32, n, pos + offsets.nbytes)
    tokens = np.frombuffer(data, np.int32, n - 1, pos + offsets.nbytes + terminal.nbytes)
    _check_trie_arrays(path, offsets, tokens, terminal)
    return TokenTrie(offsets, tokens, terminal, digest)


def _check_trie_arrays(path, offsets, tokens, terminal) -> None:
    n_edges = len(tokens)
    if offsets[0] != 0 or offsets[-1] != n_edges or np.any(np.diff(offsets) < 0):
        raise TrieFormatError(f"{path}: edge offsets are not a monotone 0..{n_edges} range")
    # node p's children are nodes offsets[p] + 1 ..: each node then has one
    # parent, and with every parent below its children the edges form one tree
    has_edges = np.flatnonzero(np.diff(offsets))
    if np.any(offsets[has_edges] < has_edges):
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
