"""Token id conventions and the reference byte-level tokenizer.

Ids 0-4 are reserved for the structural markers that delimit triplet
blocks in a linearized sequence; every content token id is >= 5.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

SUB = 0
REL = 1
OBJ = 2
ET = 3
EOS = 4

NUM_SPECIAL = 5

# The block grammar  <sub> name <rel> name <obj> name <et>, one block per
# triplet, the blocks closed by <eos>. Each name opener maps to the marker
# that closes its name and the catalog class the name is read from
# (0 = entity, 1 = relation). The openers are in the order of a Triplet's
# fields; the closer of one name opens the next, and <et> closes the block.
GRAMMAR = {SUB: (REL, 0), REL: (OBJ, 1), OBJ: (ET, 0)}


@runtime_checkable
class Tokenizer(Protocol):
    """Deterministic text <-> token-id codec.

    Implementations must round-trip every catalog name exactly and must
    never emit a reserved special id (< NUM_SPECIAL) for content text.
    """

    vocab_size: int

    def encode(self, text: str) -> list[int]: ...

    def decode(self, ids: Sequence[int]) -> str: ...


class ByteTokenizer:
    """UTF-8 byte-level tokenizer: one token per byte, id = byte value + 5.

    Dependency-free reference codec. Subword tokenizers can be slotted in
    anywhere a Tokenizer is accepted as long as they honour the reserved
    id range.
    """

    vocab_size = 256 + NUM_SPECIAL

    def encode(self, text: str) -> list[int]:
        return [b + NUM_SPECIAL for b in text.encode("utf-8")]

    def decode(self, ids: Sequence[int]) -> str:
        raw = bytearray()
        for i in ids:
            if i < NUM_SPECIAL:
                raise ValueError(f"reserved special token id {i} in content sequence")
            if i >= self.vocab_size:
                raise ValueError(f"token id {i} outside byte vocabulary")
            raw.append(i - NUM_SPECIAL)
        return raw.decode("utf-8")
