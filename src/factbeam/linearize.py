"""Triplet sets and their linearized token-sequence representation.

A triplet set is rendered as one block per triplet,

    <sub> subject-name <rel> relation-name <obj> object-name <et>

concatenated in mention order and closed by <eos>. Parsing is total:
arbitrary token sequences degrade to diagnostics instead of raising, so
any model output can be scored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .catalog import Catalog
from .tokens import EOS, ET, GRAMMAR, NUM_SPECIAL, SUB, Tokenizer


class UnknownId(KeyError):
    pass


@dataclass(frozen=True, order=True, slots=True)
class Triplet:
    """A grounded fact: (subject entity, relation, object entity) ids."""

    subject: int
    relation: int
    object: int


@dataclass(frozen=True)
class MentionedTriplet:
    """A triplet plus optional character spans of its entity mentions.

    Spans are half-open (start, end) offsets into the source text and
    must be non-empty when present.
    """

    triplet: Triplet
    subject_span: tuple[int, int] | None = None
    object_span: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        for span in (self.subject_span, self.object_span):
            if span is not None and not (0 <= span[0] < span[1]):
                raise ValueError(f"invalid mention span {span}")


@dataclass(frozen=True)
class Diagnostic:
    """One malformed or unresolvable region of a parsed sequence."""

    kind: str  # malformed_block | unknown_name | stray_token | missing_eos | trailing_tokens
    position: int
    message: str


@dataclass(frozen=True)
class ParseResult:
    triplets: frozenset[Triplet]
    diagnostics: tuple[Diagnostic, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def _span_sort_key(item: Triplet | MentionedTriplet):
    mt = _as_mentioned(item)
    sub, obj = mt.subject_span, mt.object_span
    return (sub is None, sub[0] if sub else 0, obj is None, obj[0] if obj else 0, mt.triplet)


def order_triplets(
    items: Iterable[Triplet | MentionedTriplet],
) -> list[Triplet | MentionedTriplet]:
    """Canonical mention-order sort used before linearization.

    Triplets whose subject is mentioned earlier in the text come first;
    equal subject positions fall back to object mention position, then
    to the (subject, relation, object) id triple. Triplets without a
    subject span sort after span-bearing ones, ordered by id triple.
    The sort is stable and idempotent.
    """
    return sorted(items, key=_span_sort_key)


def _as_mentioned(item: Triplet | MentionedTriplet) -> MentionedTriplet:
    if isinstance(item, MentionedTriplet):
        return item
    return MentionedTriplet(item)


def linearize(
    items: Sequence[Triplet | MentionedTriplet], cat: Catalog, tok: Tokenizer
) -> list[int]:
    """Render an ordered triplet list as a token sequence ending in <eos>.

    Raises UnknownId if any id falls outside the catalog.
    """
    name_of = (cat.entity_name, cat.relation_name)
    out: list[int] = []
    for item in items:
        t = _as_mentioned(item).triplet
        for (opener, (_, cls)), ident in zip(GRAMMAR.items(), (t.subject, t.relation, t.object)):
            try:
                name = name_of[cls](ident)
            except KeyError as exc:
                raise UnknownId(f"{t} not grounded in catalog: {exc}") from exc
            out.append(opener)
            out.extend(tok.encode(name))
        out.append(ET)
    out.append(EOS)
    return out


def _parse_block(seq: Sequence[int], start: int) -> tuple[list[list[int]] | None, int, str]:
    """Parse one <sub>...<et> block starting at seq[start] == <sub>.

    Returns (the names' token ids in opener order or None, resume index,
    failure message). On a structural error the resume index points at
    the offending token if it could open a new block, else just past it.
    """
    segments: list[list[int]] = []
    opener = SUB
    current: list[int] = []
    i = start + 1
    while i < len(seq):
        t = seq[i]
        if t >= NUM_SPECIAL:
            current.append(t)
            i += 1
            continue
        closer = GRAMMAR[opener][0]
        if t != closer:
            resume = i if t == SUB else i + 1
            return None, resume, f"expected {closer}, found special {t}"
        if not current:
            return None, i + 1, "empty name segment"
        segments.append(current)
        current = []
        if t == ET:
            return segments, i + 1, ""
        opener = t
        i += 1
    return None, len(seq), "block truncated"


def parse(seq: Sequence[int], cat: Catalog, tok: Tokenizer) -> ParseResult:
    """Recover the triplet set from a token sequence, leniently.

    Well-formed blocks whose names resolve in the catalog become
    triplets (duplicates collapse, set semantics); everything else is
    reported as a diagnostic. Never raises on malformed input.
    """
    triplets: set[Triplet] = set()
    diags: list[Diagnostic] = []
    i = 0
    n = len(seq)
    saw_eos = False
    while i < n:
        t = seq[i]
        if t == EOS:
            saw_eos = True
            if i != n - 1:
                diags.append(
                    Diagnostic("trailing_tokens", i + 1, f"{n - i - 1} tokens after <eos>")
                )
            break
        if t != SUB:
            run_start = i
            while i < n and seq[i] != SUB and seq[i] != EOS:
                i += 1
            diags.append(
                Diagnostic("stray_token", run_start, "tokens outside any block")
            )
            continue
        segments, resume, failure = _parse_block(seq, i)
        if segments is None:
            diags.append(Diagnostic("malformed_block", i, failure))
            i = resume
            continue
        triplet = _resolve(segments, cat, tok, i, diags)
        if triplet is not None:
            triplets.add(triplet)
        i = resume
    if not saw_eos:
        diags.append(Diagnostic("missing_eos", n, "sequence does not end with <eos>"))
    return ParseResult(frozenset(triplets), tuple(diags))


def _resolve(
    segments: list[list[int]],
    cat: Catalog,
    tok: Tokenizer,
    block_start: int,
    diags: list[Diagnostic],
) -> Triplet | None:
    tables = (cat.entity_ids, cat.relation_ids)
    resolved: list[int] = []
    for token_ids, (_, cls) in zip(segments, GRAMMAR.values()):
        kind = ("entity", "relation")[cls]
        try:
            name = tok.decode(token_ids)
        except (ValueError, UnicodeDecodeError):
            diags.append(
                Diagnostic("unknown_name", block_start, f"{kind} tokens do not decode")
            )
            return None
        ident = tables[cls].get(name)
        if ident is None:
            diags.append(
                Diagnostic("unknown_name", block_start, f"{kind} {name!r} not in catalog")
            )
            return None
        resolved.append(ident)
    return Triplet(*resolved)
