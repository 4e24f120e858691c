"""Core dyad types: the ego-alter dyad record and the 64-cell census.

A dyad is an ordered ego-alter pair annotated with six bits:

    x  ego participated in the intervention
    y  alter participated
    p  ego had the behavior at the pre-intervention time
    q  alter had the behavior at the pre-intervention time
    r  ego had the behavior at the post-intervention time
    s  alter had the behavior at the post-intervention time

Cells are numbered 0..63 with x as the most significant bit, then y, p,
q, r, s (``cell_codes``; ``CELL_BITS`` holds each code's bits); a census
is a ``tally`` of codes.  Dyads are kept directed as observed; callers
that want undirected ties emit both orientations at ingestion time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

__all__ = [
    "CELL_BITS",
    "DyadRecord",
    "DyadTable",
    "build_table",
    "cell_codes",
    "tally",
]

_BITS = ("x", "y", "p", "q", "r", "s")

# The six bits (x, y, p, q, r, s) of each cell, indexed by its code.
CELL_BITS = tuple(tuple(code >> shift & 1 for shift in range(5, -1, -1)) for code in range(64))

# Largest cell count a 64-cell table takes: every integer up to it is exact
# as a float, and 64 such cells still sum within int64.
_MAX_COUNT = 2**53


@dataclass(frozen=True)
class DyadRecord:
    """One observed ego-alter pair with participation and before/after behavior bits."""

    ego_id: str
    alter_id: str
    x: int
    y: int
    p: int
    q: int
    r: int
    s: int
    item_id: str = ""

    def __post_init__(self) -> None:
        if self.ego_id == self.alter_id:
            raise ValueError(f"self-dyad not allowed: ego_id == alter_id == {self.ego_id!r}")
        for name in _BITS:
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {getattr(self, name)!r}")


def cell_codes(x, y, p, q, r, s) -> np.ndarray:
    """Cell codes 32x + 16y + 8p + 4q + 2r + s of dyads given as bit arrays."""
    code = np.zeros(np.shape(x), dtype=np.intp)
    for bit in (x, y, p, q, r, s):
        code <<= 1
        code |= bit
    return code


@dataclass(frozen=True)
class DyadTable:
    """The 64-cell dyad census: non-negative integer counts indexed by cell code."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.counts)
        if arr.shape != (64,):
            raise ValueError(f"counts must have shape (64,), got {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(arr == np.floor(arr)):
                raise ValueError("counts must be integers")
        if np.any(arr > _MAX_COUNT):  # before the cast, which could wrap it
            raise ValueError("counts must be at most 2**53")
        arr = arr.astype(np.int64)
        if np.any(arr < 0):
            raise ValueError("counts must be non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def by_bits(self) -> np.ndarray:
        """The counts as a read-only (2,2,2,2,2,2) view with axes (x,y,p,q,r,s)."""
        return self.counts.reshape((2,) * 6)

    def invert_behavior(self) -> "DyadTable":
        """Census of the same dyads with behavior bits recoded (p,q,r,s -> 1 - bit)."""
        return DyadTable(self.counts[np.arange(64) ^ 0b1111])


def tally(codes: np.ndarray) -> DyadTable:
    """The census of dyads given by their cell codes."""
    return DyadTable(np.bincount(codes, minlength=64))


def build_table(records: Sequence[DyadRecord] | Iterable[DyadRecord],
                item: str | None = None) -> DyadTable:
    """Tally records into a 64-cell census.

    All records must share one ``item_id``; when ``item`` is given it must
    equal that shared value.  Mixed items are rejected because a census mixes
    answers to different questions into meaningless counts.
    """
    records = list(records)
    items = {rec.item_id for rec in records}
    if len(items) > 1:
        raise InputError(
            f"records mix {len(items)} item_id values ({sorted(items)!r}); "
            "build one census per item"
        )
    if item is not None and items and items != {item}:
        raise InputError(f"records carry item_id {items.pop()!r}, expected {item!r}")
    bits = np.array([[r.x, r.y, r.p, r.q, r.r, r.s] for r in records], np.intp).reshape(-1, 6)
    return tally(cell_codes(*bits.T))
