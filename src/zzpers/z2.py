"""Linear algebra over Z2 on integer bitmasks.

A vector is a Python int (bit i = coordinate i); a matrix is a list of
column vectors. Pivots always use the highest set bit, so echelon forms
and every basis derived from them are deterministic.
"""

from __future__ import annotations

from typing import Iterable, Optional


class Echelon:
    """Incremental column echelon form keyed by pivot bit."""

    __slots__ = ("pivots",)

    def __init__(self, columns: Iterable[int] = ()):
        self.pivots: dict[int, int] = {}
        for c in columns:
            self.add(c)

    def reduce(self, v: int) -> int:
        pivots = self.pivots
        while v:
            top = v.bit_length() - 1
            col = pivots.get(top)
            if col is None:
                return v
            v ^= col
        return 0

    def add(self, v: int) -> bool:
        """Insert v; return True if it enlarged the span."""
        v = self.reduce(v)
        if v:
            self.pivots[v.bit_length() - 1] = v
            return True
        return False

    def canonical(self, v: int) -> int:
        """Fully reduced representative of v: no pivot coordinate remains.

        Pivot columns only touch bits at or below their pivot, so one
        high-to-low sweep suffices.
        """
        pivots = self.pivots
        out = 0
        while v:
            top = v.bit_length() - 1
            col = pivots.get(top)
            if col is None:
                out |= 1 << top
                v ^= 1 << top
            else:
                v ^= col
        return out

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank(columns: Iterable[int]) -> int:
    return Echelon(columns).rank


def kernel(columns: list[int]) -> list[int]:
    """Basis of the null space, as combination masks over column indices."""
    pivots: dict[int, tuple[int, int]] = {}
    out: list[int] = []
    for j, col in enumerate(columns):
        combo = 1 << j
        while col:
            top = col.bit_length() - 1
            entry = pivots.get(top)
            if entry is None:
                break
            col ^= entry[0]
            combo ^= entry[1]
        if col:
            pivots[col.bit_length() - 1] = (col, combo)
        else:
            out.append(combo)
    return out


class Solver:
    """Solve A x = b for a fixed column set A, reporting x as a bitmask."""

    __slots__ = ("pivots",)

    def __init__(self, columns: Iterable[int]):
        self.pivots: dict[int, tuple[int, int]] = {}
        for j, col in enumerate(columns):
            combo = 1 << j
            while col:
                top = col.bit_length() - 1
                entry = self.pivots.get(top)
                if entry is None:
                    break
                col ^= entry[0]
                combo ^= entry[1]
            if col:
                self.pivots[col.bit_length() - 1] = (col, combo)

    def solve(self, b: int) -> Optional[int]:
        combo = 0
        while b:
            top = b.bit_length() - 1
            entry = self.pivots.get(top)
            if entry is None:
                return None
            b ^= entry[0]
            combo ^= entry[1]
        return combo


def apply_columns(columns: list[int], v: int) -> int:
    """Image of vector v under the matrix given by columns."""
    out = 0
    while v:
        low = v & -v
        out ^= columns[low.bit_length() - 1]
        v ^= low
    return out
