"""Grounding sets: the state sets symbols denote, with exact set algebra
over dense bitsets.

A grounding set is the extensional meaning of a symbol: the set of states
(at one hierarchy level) the symbol refers to. Logical operations on
symbols have the semantics of set operations on their grounding sets, so
everything here is plain set algebra, stored as an integer bitmask over
dense state indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import LevelMismatch, MalformedInput


def _mask_of(indices: Iterable[int]) -> int:
    """The bitmask with bit ``i`` set for each index ``i``.

    One ``"0"``/``"1"`` digit per state is written into a bytearray, then
    read as one base-2 int, so the build is linear in the indices plus the
    width; ORing ``1 << i`` into a growing int would copy it per index.
    """
    idx = list(indices)
    if not idx:
        return 0
    low = min(idx)
    if low < 0:
        raise MalformedInput(f"state index must be >= 0, got {low}")
    digits = bytearray(b"0") * (max(idx) + 1)
    for i in idx:
        digits[i] = 49  # ord("1")
    digits.reverse()  # index 0 is the lowest bit
    return int(digits, 2)


@dataclass(frozen=True)
class GroundingSet:
    """A set of state indices at one hierarchy level.

    Immutable; every operation returns a new set. Mixing levels is an
    error because identical indices mean different states at different
    levels.
    """

    level_index: int
    bits: int = 0

    @classmethod
    def of(cls, level_index: int, indices: Iterable[int]) -> GroundingSet:
        return cls(level_index, _mask_of(indices))

    @classmethod
    def single(cls, level_index: int, index: int) -> GroundingSet:
        return cls(level_index, 1 << index)

    @classmethod
    def empty(cls, level_index: int) -> GroundingSet:
        return cls(level_index, 0)

    def _check(self, other: GroundingSet) -> None:
        if self.level_index != other.level_index:
            raise LevelMismatch(
                f"level {self.level_index} vs level {other.level_index}"
            )

    def union(self, other: GroundingSet) -> GroundingSet:
        self._check(other)
        return GroundingSet(self.level_index, self.bits | other.bits)

    def intersection(self, other: GroundingSet) -> GroundingSet:
        self._check(other)
        return GroundingSet(self.level_index, self.bits & other.bits)

    # neither test negates: ``~b`` is a new int as wide as ``b``, and ``&``
    # with a negative int converts both operands
    def difference(self, other: GroundingSet) -> GroundingSet:
        self._check(other)
        a = self.bits
        return GroundingSet(self.level_index, a ^ (a & other.bits))

    def issubset(self, other: GroundingSet) -> bool:
        self._check(other)
        return self.bits & other.bits == self.bits

    def is_empty(self) -> bool:
        return self.bits == 0

    # operator sugar, same level rules as the named methods
    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __le__ = issubset

    def __contains__(self, index: int) -> bool:
        return index >= 0 and (self.bits >> index) & 1 == 1

    def bitstring(self, width: int = 0) -> str:
        """Membership as ``"1"``/``"0"`` characters, index 0 first, padded
        with ``"0"`` to at least ``width``. Indexing it tests membership
        with one string index whatever the set's width, where ``in``
        shifts the whole int; `core.Option` builds one for its
        termination set, once."""
        return bin(self.bits)[:1:-1].ljust(width, "0")

    def __iter__(self) -> Iterator[int]:
        # one pass over the binary digits; shifting the int one bit at a
        # time would be quadratic in the width
        digits = self.bitstring()
        i = digits.find("1")
        while i >= 0:
            yield i
            i = digits.find("1", i + 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __repr__(self) -> str:
        members = list(self)
        shown = members if len(members) <= 8 else members[:8] + ["..."]
        return f"GroundingSet(level={self.level_index}, {{{', '.join(map(str, shown))}}})"
