"""Significance of the measures under the null model, two independent ways.

Bootstrap: draw many null censuses (a multinomial per participation/
pre-state group), evaluate the measure on each, and report the inclusive
tail proportion at least as extreme as the observed value.

Exact: each side of a measure counts, within a handful of independent
group multinomials, the trials landing in a fixed post-state outcome set.
Category-subset counts of a multinomial are binomial, so each side is a sum
of independent binomials: a Poisson-Binomial variable.  The two sides live
in disjoint participation quadrants and are therefore independent, so the
measure's null distribution is the exact convolution of the positive side
with the negated negative side.

The Poisson-Binomial PMF is computed by sequential direct convolution of
binomial blocks.  A group's success probability depends only on its (p, q)
row and its (r, s) outcome set, so groups sharing both are merged into one
binomial of their summed mass, which is exact in distribution; a side of
one of the eight measures then has at most four blocks.  Each block's PMF
is evaluated only on the window where it is >= 1e-300 (entries below that
are zero in ``DiscreteDistribution`` anyway).  This is exact up to float
rounding and O(W^2) with W ~ 80 sd per block, instead of O(N^2) in the
side's trial total.

Tail convention: one-sided inclusive tail in the direction of the observed
deviation from the null mean, which both engines take from the model (not
from the bootstrap's samples), P(M* >= obs) when obs > mean and
P(M* <= obs) when obs < mean; an observation exactly at the mean gets
direction "none" and p = 1.  Set ``two_sided=True`` to double the tail
(capped at 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from scipy.stats import binom

from .census import DyadTable
from .errors import InputError, NumericalIntegrityError
from .measures import MeasureId, MeasureSpec, evaluate, spec_for
from .null_model import NullModel, fit, _as_generator, _sample_group_outcomes

__all__ = [
    "TrialGroup",
    "DiscreteDistribution",
    "TestResult",
    "InferenceConfig",
    "pb_pmf",
    "difference_distribution",
    "bootstrap_test",
    "exact_test",
    "run_all",
    "method_disagreement",
]

_PMF_SUM_TOL = 1e-9
_PMF_FLOOR = 1e-300

DIRECTION_POSITIVE = "positive"
DIRECTION_NEGATIVE = "negative"
DIRECTION_NONE = "none"


@dataclass(frozen=True)
class TrialGroup:
    """A block of identically distributed Bernoulli trials."""

    count: int
    success_prob: float

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if not 0.0 <= self.success_prob <= 1.0:
            raise ValueError(f"success_prob must lie in [0, 1], got {self.success_prob}")


@dataclass(frozen=True)
class DiscreteDistribution:
    """A PMF over consecutive integers starting at ``support_min``.

    Entries below 1e-300 are clamped to zero at construction.  A total mass
    farther than 1e-9 from 1 raises ``NumericalIntegrityError`` rather than
    being silently renormalized.
    """

    support_min: int
    pmf: np.ndarray

    def __post_init__(self) -> None:
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size == 0:
            raise ValueError("pmf must be a non-empty 1-D array")
        if np.any(pmf < 0):
            raise NumericalIntegrityError("pmf contains negative entries")
        pmf = np.where(pmf < _PMF_FLOOR, 0.0, pmf)
        total = float(pmf.sum())
        if abs(total - 1.0) > _PMF_SUM_TOL:
            raise NumericalIntegrityError(
                f"pmf sums to {total!r}, deviating from 1 by more than {_PMF_SUM_TOL}"
            )
        pmf.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "support_min", int(self.support_min))

    @property
    def support_max(self) -> int:
        return self.support_min + len(self.pmf) - 1

    def support(self) -> np.ndarray:
        return self.support_min + np.arange(len(self.pmf))

    def mean(self) -> float:
        return float(np.dot(self.support(), self.pmf))

    def tail_ge(self, value: int) -> float:
        """Inclusive upper tail P(X >= value)."""
        if value <= self.support_min:
            return 1.0
        if value > self.support_max:
            return 0.0
        return float(self.pmf[value - self.support_min:].sum())

    def tail_le(self, value: int) -> float:
        """Inclusive lower tail P(X <= value)."""
        if value >= self.support_max:
            return 1.0
        if value < self.support_min:
            return 0.0
        return float(self.pmf[:value - self.support_min + 1].sum())


@dataclass(frozen=True)
class TestResult:
    """Outcome of one significance test for one measure.

    ``measure`` is None when the test ran on an ad-hoc MeasureSpec.
    """

    measure: MeasureId | None
    observed: int
    null_mean: float
    direction: str
    p_value: float
    method: str
    alpha: float
    significant: bool
    trials: int | None = None
    p_value_addone: float | None = None
    two_sided: bool = False


@dataclass(frozen=True)
class InferenceConfig:
    """Settings for batch evaluation of the eight measures."""

    method: str = "both"
    trials: int = 100_000
    alpha: float = 0.05
    seed: int = 0
    two_sided: bool = False
    measures: tuple[MeasureId, ...] = tuple(MeasureId)

    def __post_init__(self) -> None:
        if self.method not in ("bootstrap", "exact", "both"):
            raise InputError(f"method must be bootstrap, exact or both, got {self.method!r}")
        if self.method != "exact" and self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 < self.alpha < 1.0:
            raise InputError(f"alpha must lie in (0, 1), got {self.alpha}")


def _binom_window(n: int, prob: float) -> tuple[int, np.ndarray]:
    """Binomial(n, prob) PMF on the window of values where it is >= 1e-300.

    Starts from mean +/- (40 sd + 40), clipped to [0, n].  The PMF is
    unimodal and that range straddles the mode, so an edge entry still at or
    above the floor means the window is too narrow there: that edge moves
    out by the current width and the PMF is evaluated again.  Sub-floor
    entries at either edge are then cut, since ``DiscreteDistribution``
    would zero them anyway.
    """
    mean = n * prob
    half = 40.0 * (mean * (1.0 - prob)) ** 0.5 + 40.0
    lo = max(0, int(mean - half))
    hi = min(n, int(mean + half) + 1)
    while True:
        block = binom.pmf(np.arange(lo, hi + 1), n, prob)
        grow_lo = lo > 0 and block[0] >= _PMF_FLOOR
        grow_hi = hi < n and block[-1] >= _PMF_FLOOR
        if not (grow_lo or grow_hi):
            break
        width = hi - lo + 1
        if grow_lo:
            lo = max(0, lo - width)
        if grow_hi:
            hi = min(n, hi + width)
    kept = np.flatnonzero(block >= _PMF_FLOOR)  # never empty: holds the mode
    return lo + int(kept[0]), block[kept[0]:kept[-1] + 1]


def pb_pmf(groups: Sequence[TrialGroup] | Iterable[TrialGroup]) -> DiscreteDistribution:
    """Exact PMF of the number of successes over all trials of all groups.

    Sequential convolution of the groups' binomial PMFs, each restricted to
    the window where it is >= 1e-300; an empty input is a point mass at 0.
    """
    support_min = 0
    pmf = np.array([1.0])
    for g in groups:
        if g.count == 0:
            continue
        lo, block = _binom_window(g.count, g.success_prob)
        support_min += lo
        pmf = np.convolve(pmf, block)
    return DiscreteDistribution(support_min, pmf)


def difference_distribution(pos: DiscreteDistribution,
                            neg: DiscreteDistribution) -> DiscreteDistribution:
    """Exact PMF of X - Y for independent X, Y."""
    pmf = np.convolve(pos.pmf, neg.pmf[::-1])
    return DiscreteDistribution(pos.support_min - neg.support_max, pmf)


def _tail_result(measure, observed: int, null_mean: float, deviation: int,
                 tail_ge, tail_le, method: str, alpha: float,
                 trials: int | None, two_sided: bool, addone=None) -> TestResult:
    if deviation > 0:
        direction, p = DIRECTION_POSITIVE, tail_ge(observed)
    elif deviation < 0:
        direction, p = DIRECTION_NEGATIVE, tail_le(observed)
    else:
        direction, p = DIRECTION_NONE, 1.0
    p_addone = addone(direction) if addone is not None else None
    if two_sided:
        p = min(1.0, 2.0 * p)
        if p_addone is not None:
            p_addone = min(1.0, 2.0 * p_addone)
    return TestResult(
        measure=measure,
        observed=observed,
        null_mean=float(null_mean),
        direction=direction,
        p_value=float(p),
        method=method,
        alpha=alpha,
        significant=bool(p < alpha),
        trials=trials,
        p_value_addone=p_addone,
        two_sided=two_sided,
    )


def _require_fitted(model: NullModel) -> NullModel:
    if model.total == 0:
        raise InputError("cannot test against a null model fitted from an empty table")
    return model


def _side_blocks(model: NullModel, side_groups
                 ) -> tuple[list[TrialGroup], Fraction | None]:
    """One walk over a side: its merged binomial blocks and its exact mean.

    A group's success probability depends only on its (p, q) row and its
    (r, s) outcome set, so groups sharing both add up to one binomial of
    their summed mass (exact in distribution).  The mean is the rational
    sum of mass * successes / row total per block, or None when the model
    carries no tallies.
    """
    masses: dict[tuple[int, int, tuple[tuple[int, int], ...]], int] = {}
    for (x, y, p, q), outcomes in side_groups.items():
        mass = int(model.masses[x, y, p, q])
        if mass:
            key = (p, q, tuple(sorted(outcomes)))
            masses[key] = masses.get(key, 0) + mass
    blocks = []
    mean = None if model.row_counts is None else Fraction(0)
    for (p, q, outcomes), mass in sorted(masses.items()):
        row = model.require_row(p, q)
        blocks.append(TrialGroup(mass, float(sum(row[r, s] for (r, s) in outcomes))))
        if mean is not None:
            successes = int(sum(model.row_counts[p, q, r, s] for (r, s) in outcomes))
            mean += Fraction(mass * successes, int(model.row_totals[p, q]))
    return blocks, mean


_MEAN_TIE_TOL = 1e-9


def _null_mean(model: NullModel, spec: MeasureSpec, observed: int
               ) -> tuple[float, int, list[TrialGroup], list[TrialGroup]]:
    """The measure's null mean under the model and the sign of the observed
    deviation from it, shared by both engines, plus the sides' blocks.

    Fitted models decide observed-vs-mean ties in exact rational
    arithmetic; hand-built models only carry floats, so there a hair's
    breadth counts as a tie.
    """
    pos_side, neg_side = spec.grouped()
    pos_groups, pos_mean = _side_blocks(model, pos_side)
    neg_groups, neg_mean = _side_blocks(model, neg_side)
    if pos_mean is not None:
        mean_frac = pos_mean - neg_mean
        deviation = (observed > mean_frac) - (observed < mean_frac)
        return float(mean_frac), deviation, pos_groups, neg_groups
    null_mean = (sum(g.count * g.success_prob for g in pos_groups)
                 - sum(g.count * g.success_prob for g in neg_groups))
    if abs(observed - null_mean) <= _MEAN_TIE_TOL * max(1.0, abs(null_mean)):
        deviation = 0
    else:
        deviation = 1 if observed > null_mean else -1
    return null_mean, deviation, pos_groups, neg_groups


def _exact_with_model(table: DyadTable, model: NullModel,
                      measure: MeasureId | MeasureSpec,
                      alpha: float, two_sided: bool) -> TestResult:
    spec = spec_for(measure) if isinstance(measure, MeasureId) else measure
    measure_id = measure if isinstance(measure, MeasureId) else None
    observed = evaluate(table, spec).value
    null_mean, deviation, pos_groups, neg_groups = _null_mean(model, spec, observed)
    dist = difference_distribution(pb_pmf(pos_groups), pb_pmf(neg_groups))
    return _tail_result(measure_id, observed, null_mean, deviation,
                        dist.tail_ge, dist.tail_le,
                        method="exact", alpha=alpha, trials=None,
                        two_sided=two_sided)


def exact_test(table: DyadTable, measure: MeasureId | MeasureSpec,
               alpha: float = 0.05, two_sided: bool = False,
               model: NullModel | None = None) -> TestResult:
    """Exact tail probability of a measure under the null model.

    The model is fitted from the table unless an explicit one is given
    (e.g. to test data against the model that generated it).
    """
    model = _require_fitted(model if model is not None else fit(table))
    return _exact_with_model(table, model, measure, alpha, two_sided)


def _measure_values(spec: MeasureSpec,
                    outcomes: dict[tuple[int, int, int, int], np.ndarray],
                    trials: int) -> np.ndarray:
    """Measure value on each sampled census."""
    values = np.zeros(trials, dtype=np.int64)
    pos_side, neg_side = spec.grouped()
    for side, sign in ((pos_side, 1), (neg_side, -1)):
        for group in sorted(side):
            arr = outcomes.get(group)
            if arr is None:
                continue
            cols = [2 * r + s for (r, s) in sorted(side[group])]
            values += sign * arr[:, cols].sum(axis=1)
    return values


def _bootstrap_result(measure, model: NullModel, spec: MeasureSpec, observed: int,
                      values: np.ndarray, alpha: float, two_sided: bool) -> TestResult:
    trials = len(values)
    null_mean, deviation, _, _ = _null_mean(model, spec, observed)

    def tail_ge(v):
        return float((values >= v).sum()) / trials

    def tail_le(v):
        return float((values <= v).sum()) / trials

    def addone(direction):
        if direction == DIRECTION_POSITIVE:
            k = int((values >= observed).sum())
        elif direction == DIRECTION_NEGATIVE:
            k = int((values <= observed).sum())
        else:
            k = trials
        return (k + 1) / (trials + 1)

    return _tail_result(measure, observed, null_mean, deviation, tail_ge, tail_le,
                        method="bootstrap", alpha=alpha, trials=trials,
                        two_sided=two_sided, addone=addone)


def bootstrap_test(table: DyadTable, measure: MeasureId | MeasureSpec,
                   trials: int, seed, alpha: float = 0.05,
                   two_sided: bool = False,
                   model: NullModel | None = None) -> TestResult:
    """Monte Carlo tail probability from ``trials`` null censuses.

    Deterministic given the seed.  The same seed and trial count produce
    the same null censuses as ``run_all``, so single-measure results match
    the batch run exactly.
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    model = _require_fitted(model if model is not None else fit(table))
    spec = spec_for(measure) if isinstance(measure, MeasureId) else measure
    measure_id = measure if isinstance(measure, MeasureId) else None
    observed = evaluate(table, spec).value
    outcomes = _sample_group_outcomes(model, trials, _as_generator(seed))
    values = _measure_values(spec, outcomes, trials)
    return _bootstrap_result(measure_id, model, spec, observed, values, alpha, two_sided)


def run_all(table: DyadTable, config: InferenceConfig = InferenceConfig()
            ) -> list[TestResult]:
    """Run the configured method(s) for every measure.

    With ``method="both"`` each measure yields a bootstrap and an exact
    result (in that order); bootstrap trials are drawn once and shared
    across measures, exactly as if each census had been evaluated on all
    eight.  Results are ordered by measure, then method.
    """
    model = _require_fitted(fit(table))
    results: list[TestResult] = []
    bootstrap_values: dict[MeasureId, np.ndarray] = {}
    if config.method in ("bootstrap", "both"):
        outcomes = _sample_group_outcomes(model, config.trials,
                                          _as_generator(config.seed))
        for m in config.measures:
            bootstrap_values[m] = _measure_values(spec_for(m), outcomes, config.trials)
    for m in config.measures:
        observed = evaluate(table, m).value
        if config.method in ("bootstrap", "both"):
            results.append(_bootstrap_result(m, model, spec_for(m), observed,
                                             bootstrap_values[m], config.alpha,
                                             config.two_sided))
        if config.method in ("exact", "both"):
            results.append(_exact_with_model(table, model, m,
                                             config.alpha, config.two_sided))
    return results


def method_disagreement(results: Sequence[TestResult]) -> dict[MeasureId, float]:
    """|p_bootstrap - p_exact| per measure, for runs that used both methods."""
    by_measure: dict[MeasureId, dict[str, float]] = {}
    for res in results:
        by_measure.setdefault(res.measure, {})[res.method] = res.p_value
    return {
        m: abs(ps["bootstrap"] - ps["exact"])
        for m, ps in by_measure.items()
        if "bootstrap" in ps and "exact" in ps
    }
