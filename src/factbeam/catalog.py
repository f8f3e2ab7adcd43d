"""Entity/relation catalogs and the prefix tries built over their names.

A Catalog assigns dense integer ids to unique entity and relation names.
A TokenTrie indexes the tokenized names and answers "which tokens may
follow this prefix", the query at the heart of constrained decoding.
Both structures are immutable once built and safe to share across
concurrent decoders.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .tokens import Tokenizer


class CatalogError(ValueError):
    pass


class EmptyName(CatalogError):
    pass


class DuplicateName(CatalogError):
    def __init__(self, name: str, kind: str):
        super().__init__(f"duplicate {kind} name: {name!r}")
        self.name = name
        self.kind = kind


@dataclass(frozen=True)
class Catalog:
    """Immutable registry of entity and relation names with dense ids.

    Ids are 0..N-1 in each class. The name -> id maps are the inverse of
    the name tuples; build_catalog and load_catalog fill both in the
    pass that checks the names.
    """

    entity_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    entity_ids: Mapping[str, int] = field(repr=False, compare=False)
    relation_ids: Mapping[str, int] = field(repr=False, compare=False)

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    def entity_name(self, entity_id: int) -> str:
        if not 0 <= entity_id < len(self.entity_names):
            raise KeyError(f"unknown entity id {entity_id}")
        return self.entity_names[entity_id]

    def relation_name(self, relation_id: int) -> str:
        if not 0 <= relation_id < len(self.relation_names):
            raise KeyError(f"unknown relation id {relation_id}")
        return self.relation_names[relation_id]


def add_name(ids: dict[str, int], name: str, kind: str, ident: int) -> None:
    """Enter name under ident in a class's name -> id map, refusing a
    blank name (EmptyName) and a repeated one (DuplicateName)."""
    if not name.strip():
        raise EmptyName(f"blank {kind} name at position {ident}")
    if name in ids:
        raise DuplicateName(name, kind)
    ids[name] = ident


def build_catalog(entity_names: Iterable[str], relation_names: Iterable[str]) -> Catalog:
    """Assemble a Catalog, assigning dense ids in input order.

    Raises EmptyName for blank entries and DuplicateName for repeats
    within a class.
    """
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    for ids, names, kind in ((entity_ids, entity_names, "entity"), (relation_ids, relation_names, "relation")):
        for i, name in enumerate(names):
            add_name(ids, name, kind, i)
    return Catalog(tuple(entity_ids), tuple(relation_ids), entity_ids, relation_ids)


class TokenTrie:
    """Immutable prefix trie keyed by token ids, in compressed sparse rows.

    Nodes are numbered in level order, each node's children in token
    order, so the child along edge e is node e + 1. Node i's edges are
    tokens[offsets[i]:offsets[i + 1]] (ascending); terminal[i] is the
    catalog id of the name ending at node i, or -1; all three arrays are
    int32. Node 0 is the root. names_sha256 is the names_digest of the
    names the trie is bound to, all zero when unbound. These are the
    FBTRIE02 artifact's contents, the arrays held as memoryviews so that
    every element read is a plain Python int.
    """

    __slots__ = ("offsets", "tokens", "terminal", "names_sha256", "_names")

    ROOT = 0

    def __init__(self, offsets, tokens, terminal, names_sha256: bytes = bytes(32)):
        self.offsets, self.tokens, self.terminal = (
            memoryview(np.asarray(a, np.int32)).toreadonly() for a in (offsets, tokens, terminal)
        )
        self.names_sha256 = bytes(names_sha256)
        self._names = int(np.count_nonzero(np.asarray(terminal) >= 0))

    @property
    def node_count(self) -> int:
        return len(self.terminal)

    def __len__(self) -> int:
        return self._names

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenTrie):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def child(self, node: int, token: int) -> int | None:
        hi = self.offsets[node + 1]
        i = bisect_left(self.tokens, token, self.offsets[node], hi)
        return i + 1 if i < hi and self.tokens[i] == token else None

    def children_of(self, node: int) -> Sequence[int]:
        """The tokens leaving node, ascending."""
        return self.tokens[self.offsets[node] : self.offsets[node + 1]]

    def terminal_id(self, node: int) -> int | None:
        t = self.terminal[node]
        return None if t < 0 else t

    def approx_bytes(self) -> int:
        """In-memory size of the node and edge arrays."""
        return sum(a.nbytes for a in (self.offsets, self.tokens, self.terminal))


def names_digest(names_with_ids: Iterable[tuple[int, str]]) -> bytes:
    """SHA-256 of the (id, name) pairs sorted by id, as UTF-8
    "<id>\\t<name>\\n" lines: what binds a trie to its catalog."""
    lines = "".join(f"{catalog_id}\t{name}\n" for catalog_id, name in sorted(names_with_ids))
    return hashlib.sha256(lines.encode("utf-8")).digest()


def build_trie(names_with_ids: Iterable[tuple[int, str]], tok: Tokenizer) -> TokenTrie:
    """Index every (id, name) pair; names must tokenize uniquely.

    Node count never exceeds the total token count plus one (the root),
    and the structure depends only on the (id, name) set, never on
    insertion order. The trie grows one depth at a time: the names still
    live at depth d are sorted by (node, token), and each distinct pair
    opens a node, so the nodes come out in level order. Time and memory
    grow with the total token count. The trie is unbound (names_sha256
    all zero): build-trie passes the digest to save_trie.
    """
    pairs = list(names_with_ids)
    flat, lengths = array("i"), array("q")
    for _, name in pairs:
        encoded = tok.encode(name)
        flat.extend(encoded)
        lengths.append(len(encoded))
    flat, length = np.asarray(flat), np.asarray(lengths)
    start = np.cumsum(length) - length
    radix = int(flat.max(initial=0)) + 1
    node = np.zeros(len(pairs), dtype=np.int64)  # each name's node at the current depth
    live = np.arange(len(pairs))
    degrees, tokens = [], []  # edge counts of the nodes, and edge tokens, depth by depth
    first, n = 0, 1  # the nodes at the current depth are first..n-1
    for depth in range(int(length.max(initial=0)) + 1):
        live = live[length[live] > depth]
        key = (node[live] - first) * radix + flat[start[live] + depth]
        order = np.argsort(key)
        live, key = live[order], key[order]
        opens = np.diff(key, prepend=-1) != 0
        new = live[opens]
        degrees.append(np.bincount(node[new] - first, minlength=n - first))
        tokens.append(flat[start[new] + depth])
        node[live] = n - 1 + np.cumsum(opens)
        first, n = n, n + len(new)
    if n > np.iinfo(np.int32).max:
        raise CatalogError(f"trie of {n} nodes exceeds the int32 node ids")
    terminal = np.full(n, -1, dtype=np.int32)
    terminal[node] = np.arange(len(pairs))
    clash = terminal[node] != np.arange(len(pairs))  # names ending on one node
    if clash.any():
        raise DuplicateName(pairs[int(np.argmax(clash))][1], "trie")
    terminal[node] = np.fromiter((catalog_id for catalog_id, _ in pairs), np.int32, len(pairs))
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.concatenate(degrees), out=offsets[1:])
    return TokenTrie(offsets, np.concatenate(tokens), terminal)

