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
from dataclasses import InitVar, dataclass, field
from typing import Iterator

import numpy as np

from .census import DyadTable

__all__ = ["NullModel", "fit", "sample"]


@dataclass(frozen=True)
class NullModel:
    """The pooled transition matrix of a census, plus the 16 group masses it
    will be applied to, all derived once from that census's tallies as
    read-only arrays.

    ``masses[x, y, p, q]`` is the number of dyads of participation type
    (x, y) in pre-state (p, q).  ``row_counts[p, q, r, s]`` counts the
    transitions from pre-state (p, q) to post-state (r, s), over
    ``row_totals[p, q]`` dyads, and ``p0[p, q, r, s]`` is their ratio, the
    probability that a dyad in pre-state (p, q) lands in post-state (r, s).
    Rows with no observed pre-state mass are undefined: ``row_defined[p, q]``
    is False and the row holds zeros.  The masses and the tallies are
    marginals of one census, so no group with mass sits on an undefined row.
    """

    table: InitVar[DyadTable]
    masses: np.ndarray = field(init=False)
    row_counts: np.ndarray = field(init=False)
    row_totals: np.ndarray = field(init=False)
    row_defined: np.ndarray = field(init=False)
    p0: np.ndarray = field(init=False)

    def __post_init__(self, table: DyadTable) -> None:
        c = table.by_bits()
        row_counts = c.sum(axis=(0, 1))
        row_totals = c.sum(axis=(0, 1, 4, 5))
        row_defined = row_totals > 0
        p0 = np.zeros((2, 2, 2, 2))
        p0[row_defined] = row_counts[row_defined] / row_totals[row_defined][:, None, None]
        for name, arr in (("masses", c.sum(axis=(4, 5))), ("row_counts", row_counts),
                          ("row_totals", row_totals), ("row_defined", row_defined),
                          ("p0", p0)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def total(self) -> int:
        return int(self.masses.sum())


def fit(table: DyadTable) -> NullModel:
    """Estimate the pooled transition matrix and group masses from a census.

    Rows (p, q) with no observed dyads are left undefined rather than being
    filled with fabricated probabilities; a model fit from a table with
    total 0 has all rows undefined and is rejected by the inference entry
    points.
    """
    return NullModel(table)


def _sample_group_outcomes(model: NullModel, trials: int, rng: np.random.Generator
                           ) -> np.ndarray:
    """The cell counts of ``trials`` null censuses, as a (trials, 64) int64
    array whose row b is census b indexed by cell code.

    Each (x, y, p, q) group fills its four (r, s) cells with one multinomial
    draw over all trials.  All positive-mass groups are drawn in
    lexicographic (x, y, p, q) order from one stream, so the sequence of null
    censuses depends only on the seed, never on how the draws are used
    afterwards; groups without mass stay 0.
    """
    outcomes = np.zeros((trials, 16, 4), dtype=np.int64)
    for g, group in enumerate(np.ndindex(2, 2, 2, 2)):
        mass = int(model.masses[group])
        if mass:
            outcomes[:, g] = rng.multinomial(mass, model.p0[group[2:]].ravel(), size=trials)
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
    always gives the same census.
    """
    return DyadTable(_sample_group_outcomes(model, 1, np.random.default_rng(seed))[0])

