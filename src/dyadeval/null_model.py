"""Pooled behavior-transition null model.

The null hypothesis is that participation makes no difference: all four
(x, y) participation quadrants share one transition distribution from
pre-state (p, q) to post-state (r, s).  Fitting pools the quadrants into a
4x4 row-stochastic matrix; sampling redraws every group's post-states from
that matrix while keeping participation and pre-states fixed at their
observed masses.  A draw of many censuses is one (trials, 64) array of cell
counts, so the bootstrap scores it against every measure's weight row with
one matrix product.

Randomness contract: sampling uses numpy's PCG64 generator.  A draw of
any number of censuses takes every positive-mass group in lexicographic
(x, y, p, q) order from one stream, so a seed fully determines it bit for
bit.  ``sample`` draws its one census from the stream of its seed.  The
bootstrap draws its censuses in chunks of a fixed size (the last chunk may
be shorter), and chunk j draws from stream j of the seed:
``SeedSequence(root.entropy, spawn_key=root.spawn_key + (j,))`` for the
seed's ``SeedSequence`` root (``SeedSequence(seed)`` for an int).  These
streams are derived, never spawned, so any process holding the seed draws
any chunk alike.  A ``Generator`` seed is one stream: its chunks are drawn
from it one after another.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .census import DyadTable
from .errors import UndefinedRowError

__all__ = ["NullModel", "fit", "sample"]

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class NullModel:
    """Transition matrix plus the 16 group masses it will be applied to.

    ``p0[p, q, r, s]`` is the probability that a dyad in pre-state (p, q)
    lands in post-state (r, s).  Rows with no observed pre-state mass are
    undefined: ``row_defined[p, q]`` is False and the row holds zeros.
    ``masses[x, y, p, q]`` is the number of dyads of participation type
    (x, y) in pre-state (p, q).

    Fitted models also carry the integer tallies behind the matrix
    (``row_counts[p, q, r, s]`` transitions over ``row_totals[p, q]`` dyads),
    which lets the exact engine resolve ties between an observed value and
    the null mean in exact rational arithmetic.  Hand-built models may omit
    them.
    """

    p0: np.ndarray
    masses: np.ndarray
    row_defined: np.ndarray
    row_counts: np.ndarray | None = None
    row_totals: np.ndarray | None = None

    def __post_init__(self) -> None:
        p0 = np.asarray(self.p0, dtype=float)
        masses = np.asarray(self.masses)
        row_defined = np.asarray(self.row_defined, dtype=bool)
        if p0.shape != (2, 2, 2, 2):
            raise ValueError(f"p0 must have shape (2,2,2,2), got {p0.shape}")
        if masses.shape != (2, 2, 2, 2):
            raise ValueError(f"masses must have shape (2,2,2,2), got {masses.shape}")
        if row_defined.shape != (2, 2):
            raise ValueError(f"row_defined must have shape (2,2), got {row_defined.shape}")
        if np.any(masses < 0):
            raise ValueError("masses must be non-negative")
        if np.any((p0 < 0) | (p0 > 1)):
            raise ValueError("transition probabilities must lie in [0, 1]")
        for p in (0, 1):
            for q in (0, 1):
                row_sum = p0[p, q].sum()
                if row_defined[p, q]:
                    if abs(row_sum - 1.0) > _ROW_SUM_TOL:
                        raise ValueError(
                            f"defined row (p={p}, q={q}) sums to {row_sum!r}, not 1"
                        )
                elif row_sum != 0.0:
                    raise ValueError(f"undefined row (p={p}, q={q}) must carry no mass")
        masses = masses.astype(np.int64)
        for arr in (p0, masses, row_defined):
            arr.flags.writeable = False
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "row_defined", row_defined)
        if (self.row_counts is None) != (self.row_totals is None):
            raise ValueError("row_counts and row_totals must be given together")
        if self.row_counts is not None:
            counts = np.asarray(self.row_counts).astype(np.int64)
            totals = np.asarray(self.row_totals).astype(np.int64)
            if counts.shape != (2, 2, 2, 2) or totals.shape != (2, 2):
                raise ValueError("row_counts must be (2,2,2,2) and row_totals (2,2)")
            if np.any(counts < 0) or np.any(totals < 0):
                raise ValueError("integer tallies must be non-negative")
            if np.any(counts.sum(axis=(2, 3)) != totals):
                raise ValueError("row_counts must sum to row_totals per row")
            counts.flags.writeable = False
            totals.flags.writeable = False
            object.__setattr__(self, "row_counts", counts)
            object.__setattr__(self, "row_totals", totals)

    @property
    def total(self) -> int:
        return int(self.masses.sum())

    def require_row(self, p: int, q: int) -> np.ndarray:
        if not self.row_defined[p, q]:
            raise UndefinedRowError(
                f"transition row (p={p}, q={q}) is undefined: no dyads observed "
                "in that pre-state"
            )
        return self.p0[p, q]


def fit(table: DyadTable) -> NullModel:
    """Estimate the pooled transition matrix and group masses from a census.

    Rows (p, q) with no observed dyads are left undefined rather than being
    filled with fabricated probabilities; a model fit from a table with
    total 0 has all rows undefined and is rejected by the inference entry
    points.
    """
    c = table.by_bits()
    row_counts = c.sum(axis=(0, 1))
    row_totals = c.sum(axis=(0, 1, 4, 5))
    row_defined = row_totals > 0
    p0 = np.zeros((2, 2, 2, 2))
    p0[row_defined] = row_counts[row_defined] / row_totals[row_defined][:, None, None]
    return NullModel(p0=p0, masses=c.sum(axis=(4, 5)), row_defined=row_defined,
                     row_counts=row_counts, row_totals=row_totals)


def _sample_group_outcomes(model: NullModel, trials: int, rng: np.random.Generator
                           ) -> np.ndarray:
    """The cell counts of ``trials`` null censuses, as a (trials, 64) int64
    array whose row b is census b indexed by cell code.

    Each (x, y, p, q) group fills its four (r, s) cells with one multinomial
    draw over all trials.  All positive-mass groups are drawn in
    lexicographic (x, y, p, q) order from one stream, so the sequence of null
    censuses depends only on the seed, never on how the draws are used
    afterwards; groups without mass stay 0.  Raises ``UndefinedRowError`` if
    any group with positive mass sits on an undefined transition row
    (possible only for hand-built models).
    """
    outcomes = np.zeros((trials, 16, 4), dtype=np.int64)
    for g, group in enumerate(np.ndindex(2, 2, 2, 2)):
        mass = int(model.masses[group])
        if mass:
            row = model.require_row(*group[2:])
            outcomes[:, g] = rng.multinomial(mass, row.ravel(), size=trials)
    return outcomes.reshape(trials, 64)


def _chunk_streams(seed, chunks: range) -> Iterator[np.random.Generator]:
    """The stream of each chunk in ``chunks``, in order: stream j of the
    seed for chunk j, or a ``Generator`` seed itself for each chunk in
    turn (see the module docstring)."""
    if isinstance(seed, np.random.Generator):
        return itertools.repeat(seed, len(chunks))
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return (np.random.default_rng(np.random.SeedSequence(
                root.entropy, spawn_key=root.spawn_key + (j,), pool_size=root.pool_size))
            for j in chunks)


def sample(model: NullModel, seed) -> DyadTable:
    """Draw one null census: participation and pre-states keep their
    observed masses, and each (x, y, p, q) group's post-states are one
    multinomial draw of the bootstrap's sampler.

    The census is the one-trial draw from the stream of ``seed`` (an int, a
    ``SeedSequence`` or a ``Generator``, which the draw advances), so a seed
    always gives the same census.  Raises ``UndefinedRowError`` as the
    sampler does.
    """
    return DyadTable(_sample_group_outcomes(model, 1, np.random.default_rng(seed))[0])

