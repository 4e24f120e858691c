"""The eight sociological measures M1-M8 as signed rows over the 64 cells.

Each measure is the difference of two sums of census cells.  A
``MeasureSpec`` is declared by its positive and negative cell-sets and
derives from them, once, a read-only int8 ``weights`` row indexed by cell
code: +1 on the positive cells, -1 on the negative ones, 0 elsewhere.  That
row is all the rest of the package reads: a measure's value on a census is
``weights @ counts``, the bootstrap scores a chunk of null censuses with
one matrix product, and the exact engine reads each side's cells off
``weights.reshape(2, 2, 2, 2, 4)`` by (x, y, p, q) group and (r, s) outcome.
The two cell-sets of every measure live in disjoint participation
quadrants, which is what makes the two sums independent under the null
model and licenses the exact inference engine.

Polarity note: M1, M3, M5 and M7 count transitions with the behavior
present before and absent after (pre-bit 1, post-bit 0); M2, M4, M6 and M8
fix the pre-bit at 0 instead.  This matches an intervention that suppresses
a behavior coded 1.  If your data codes the promoted behavior as 1, recode
with ``invert_behavior`` at ingestion so the transition 1 -> 0 is the one
the intervention is expected to cause.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .census import _BITS, CELL_BITS, DyadTable

__all__ = ["MeasureId", "MeasureSpec", "MeasureValue", "spec_for", "evaluate", "MEASURE_LABELS"]


class MeasureId(Enum):
    M1 = "M1"
    M2 = "M2"
    M3 = "M3"
    M4 = "M4"
    M5 = "M5"
    M6 = "M6"
    M7 = "M7"
    M8 = "M8"

    @property
    def label(self) -> str:
        return MEASURE_LABELS[self]

    def __str__(self) -> str:
        return self.value


MEASURE_LABELS: dict[MeasureId, str] = {
    MeasureId.M1: "Direct Treatment Success in a Social Context",
    MeasureId.M2: "Direct Prevention in a Social Context",
    MeasureId.M3: "Social Effect of Treatment",
    MeasureId.M4: "Social Effect of Prevention",
    MeasureId.M5: "Reinforcement of Change",
    MeasureId.M6: "Reinforcement of Prevention",
    MeasureId.M7: "Diffusion of Change",
    MeasureId.M8: "Diffusion of Prevention",
}

# Fixed coordinates of each measure's positive and negative cell-sets.
# Unlisted coordinates range over {0, 1}.
_FIXED_COORDS: dict[MeasureId, tuple[dict[str, int], dict[str, int]]] = {
    MeasureId.M1: ({"x": 1, "p": 1, "r": 0}, {"x": 0, "p": 1, "r": 0}),
    MeasureId.M2: ({"x": 1, "p": 0, "r": 0}, {"x": 0, "p": 0, "r": 0}),
    MeasureId.M3: ({"x": 1, "q": 1, "s": 0}, {"x": 0, "q": 1, "s": 0}),
    MeasureId.M4: ({"x": 1, "q": 0, "s": 0}, {"x": 0, "q": 0, "s": 0}),
    MeasureId.M5: ({"x": 1, "y": 1, "p": 1, "r": 0}, {"x": 1, "y": 0, "p": 1, "r": 0}),
    MeasureId.M6: ({"x": 1, "y": 1, "p": 0, "r": 0}, {"x": 1, "y": 0, "p": 0, "r": 0}),
    MeasureId.M7: ({"x": 1, "y": 0, "q": 1, "s": 0}, {"x": 0, "y": 0, "q": 1, "s": 0}),
    MeasureId.M8: ({"x": 1, "y": 0, "q": 0, "s": 0}, {"x": 0, "y": 0, "q": 0, "s": 0}),
}


def _cell_code(cell) -> int:
    bits = tuple(cell)
    if bits not in CELL_BITS:
        raise ValueError(f"a cell is six bits (x, y, p, q, r, s) of 0 or 1, got {cell!r}")
    return CELL_BITS.index(bits)


@dataclass(frozen=True)
class MeasureSpec:
    """A difference-of-sums statistic over census cells, each cell given as
    its six bits (x, y, p, q, r, s).

    ``positive_cells`` and ``negative_cells`` must be disjoint and must
    occupy disjoint (x, y) participation quadrants; the latter guarantees
    the two sums are driven by disjoint dyad groups.  ``weights`` is the
    signed row over the 64 cell codes derived from them (not compared,
    hashed or shown).
    """

    positive_cells: frozenset[tuple[int, ...]]
    negative_cells: frozenset[tuple[int, ...]]
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pos = [_cell_code(c) for c in self.positive_cells]
        neg = [_cell_code(c) for c in self.negative_cells]
        object.__setattr__(self, "positive_cells", frozenset(CELL_BITS[c] for c in pos))
        object.__setattr__(self, "negative_cells", frozenset(CELL_BITS[c] for c in neg))
        weights = np.zeros(64, dtype=np.int8)
        weights[pos] = 1
        if weights[neg].any():
            raise ValueError("positive and negative cell-sets overlap")
        weights[neg] = -1
        quadrants = weights.reshape(4, 16)  # by (x, y)
        shared = np.flatnonzero((quadrants > 0).any(axis=1) & (quadrants < 0).any(axis=1))
        if shared.size:
            raise ValueError(f"positive and negative cell-sets share participation quadrants "
                             f"{[divmod(int(q), 2) for q in shared]}; the two sums would "
                             "not be independent under the null model")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class MeasureValue:
    """Observed value of a measure: positive sum minus negative sum."""

    value: int
    positive_sum: int
    negative_sum: int

    def __post_init__(self) -> None:
        if self.value != self.positive_sum - self.negative_sum:
            raise ValueError("value must equal positive_sum - negative_sum")


_SPECS = {m: MeasureSpec(*(frozenset(bits for bits in CELL_BITS
                                      if fixed.items() <= dict(zip(_BITS, bits)).items())
                            for fixed in sides))
          for m, sides in _FIXED_COORDS.items()}


def spec_for(measure: MeasureId) -> MeasureSpec:
    """The spec of one of the eight built-in measures, built once at import."""
    return _SPECS[measure]


def evaluate(table: DyadTable, measure: MeasureId | MeasureSpec) -> MeasureValue:
    """Evaluate a measure on a census: its positive and negative cells' sums."""
    spec = spec_for(measure) if isinstance(measure, MeasureId) else measure
    pos = int(table.counts[spec.weights > 0].sum())
    neg = int(table.counts[spec.weights < 0].sum())
    return MeasureValue(value=pos - neg, positive_sum=pos, negative_sum=neg)
