"""Significance of the measures under the null model, two independent ways.

Both engines read a measure only through its signed weight row over the
64 cells (``MeasureSpec.weights``).

Bootstrap: draw many null censuses (a multinomial per participation/
pre-state group), evaluate the measure on each, and report the inclusive
tail proportion at least as extreme as the observed value.  Censuses are
drawn in fixed chunks, each from its own stream of the seed, as a
(trials, 64) array of cell counts; one integer product with the stacked
(k, 64) weight rows scores a chunk for all k measures, and only the running
counts of values >= and <= the observed one are kept.

Exact: each side of a measure counts, within a handful of independent
group multinomials, the trials landing in a fixed post-state outcome set:
the side's cells in ``weights.reshape(2, 2, 2, 2, 4)``, by (x, y, p, q)
group and (r, s) outcome column.
Category-subset counts of a multinomial are binomial, so each side is a sum
of independent binomials: a Poisson-Binomial variable.  The two sides live
in disjoint participation quadrants and are therefore independent, so the
measure's null distribution is the exact convolution of the positive side
with the negated negative side.

Groups sharing their (p, q) row and (r, s) outcome set share their
success probability, so they merge into one binomial of their summed mass
(exact in distribution); a side of one of the eight measures then has at
most four blocks.  The binomial PMF is Loader's saddle-point form (C.
Loader, "Fast and Accurate Computation of Binomial Probabilities", 2000;
the algorithm of R's ``dbinom``): Stirling-series errors plus deviance
terms, so no difference of log-gamma values cancels, in numpy alone.

Every measure's tail takes one path (``_exact_tails``), its blocks kept as
arrays from its run plan on (``_side_blocks``).  At the null mean the tail
is 1 and nothing is evaluated; on or past the edge of the difference's
support it is the product of each block's PMF at its extreme, or 0, told
apart for all measures at once by exact integer sums of their trials.
Every other tail is taken by exponential tilting (Keich, J. Comput.
Biol. 2005; Wilson and Keich, CSDA 2016): the null is tilted by theta so
that its mean is the observed value, each block staying a binomial; the
tilted blocks, evaluated on +-15 tilted sd, give the tilted PMF of X - Y
from one FFT product, and the tail is its sum over the tail weighted by
exp(-theta (d - v)), times exp(log M(theta) - theta v).  FFT round-off is
then relative to the PMF near v, the answer's own scale, and the work is
O(W log W) in the windows' width W.  An exact task solves its measures'
theta together, by Newton steps on arrays, and evaluates their tilted
windows in one batch, in passes of at most 8,192 entries, each first bounded
by the Chernoff bound n KL(k / n || p) <= 15^2 / 2.  A tail follows from its
measure's own blocks and observed value alone, whatever measures share its
run.  A measure whose side's windows could span over 2**19 entries in all is
an InputError when its run is planned, before any is allocated.

``pb_pmf``, the PMF of one sum of binomials, is the module's one direct
convolution: each block evaluated on the window where it is >= 1e-300
(n KL <= ln(1e300) + 1), convolved in sequence, O(W^2) in ~75-sd windows.

Tail convention: one-sided inclusive tail in the direction of the observed
deviation from the null mean, which both engines take from the model (not
from the bootstrap's samples), P(M* >= obs) when obs > mean and
P(M* <= obs) when obs < mean; an observation exactly at the mean gets
direction "none" and p = 1.  Set ``two_sided=True`` to double the tail
(capped at 1).

One run plan serves every entry point.  ``run_items`` fits each item's
model once, takes each measure's observed value, null mean, direction and
binomial blocks once, and splits the work into tasks: ranges of bootstrap
chunks plus the exact work of all items in at most one batch per worker.
The tasks run inline or through a map the caller supplies
(``io.evaluate_items``, which takes one census per item from any source,
passes one that runs them in forked children); only this module knows the
chunk layout and the split.  ``run_all`` is the
one-item case, inline; ``bootstrap_test`` and ``exact_test`` are its
one-measure cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .census import DyadTable
from .errors import InputError, NumericalIntegrityError
from .measures import MeasureId, MeasureSpec, spec_for
from .null_model import NullModel, fit, _chunk_streams, _sample_group_outcomes

__all__ = [
    "TrialGroup",
    "DiscreteDistribution",
    "TestResult",
    "InferenceConfig",
    "pb_pmf",
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
    """Settings for batch evaluation of the eight measures.  An ad-hoc
    ``MeasureSpec`` among ``measures`` is reported with measure None."""

    method: str = "both"
    trials: int = 100_000
    alpha: float = 0.05
    seed: int = 0
    two_sided: bool = False
    measures: tuple[MeasureId | MeasureSpec, ...] = tuple(MeasureId)

    def __post_init__(self) -> None:
        if self.method not in ("bootstrap", "exact", "both"):
            raise InputError(f"method must be bootstrap, exact or both, got {self.method!r}")
        if self.method != "exact" and self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 < self.alpha < 1.0:
            raise InputError(f"alpha must lie in (0, 1), got {self.alpha}")


# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n / e)^n) for n = 0..15; entry 0
# is a placeholder that is never read
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_LN_2PI = math.log(2.0 * math.pi)


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """Stirling-series error of log(n!): the table up to 15, the five-term
    asymptotic series above."""
    small = n <= 15
    m = np.where(small, 16.0, n)
    mm = m * m
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * mm)) / mm) / mm) / mm) / m
    return np.where(small, _STIRLERR[np.where(small, n, 0).astype(np.intp)], series)


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Deviance x log(x / m) + m - x for x > 0, elementwise for ``m`` of
    x's shape, summed as a series in v = (x - m) / (x + m) where
    |x - m| < 0.1 (x + m), so it does not cancel near x = m.  The series
    stops once its terms no longer change any sum: the terms shrink and keep
    their sign, so a sum that has stopped changing changes no more."""
    out = x * np.log(x / m) + m - x
    near = np.abs(x - m) < 0.1 * (x + m)
    if near.any():
        x, m = x[near], m[near]
        d = x - m
        v = d / (x + m)
        total, term, v2 = d * v, 2.0 * x * v, v * v
        j = 1
        while True:
            term = term * v2
            nxt = total + term / (2 * j + 1)
            if np.array_equal(nxt, total):
                break
            total, j = nxt, j + 1
        out[near] = total
    return out


def _binom_pmf(k: np.ndarray, n, p) -> np.ndarray:
    """Binomial(n, p) PMF at integers 0 <= k <= n by Loader's saddle-point
    form, elementwise for a 1-D ``k``, with ``n`` >= 1 and ``p`` scalars or
    arrays of k's shape.

    exp(stirlerr(n) - stirlerr(k) - stirlerr(n - k) - bd0(k, np)
    - bd0(n - k, nq)) / sqrt(2 pi k (n - k) / n) inside, n log(1 - p) and
    n log(p) at k = 0 and k = n, point masses for p in {0, 1}.  The
    log(2 pi k (n - k) / n) term is a sum of logs, not Loader's
    log1p(-k / n), which cancels at k = n - 1.  The terms of (n, p) alone
    are taken once per run of entries sharing them, their logs and
    exponentials in Python floats, so an entry's value does not depend on
    which entries are evaluated with it.
    """
    k = np.asarray(k, dtype=float)
    n = np.broadcast_to(np.asarray(n, dtype=float), k.shape)
    p = np.broadcast_to(np.asarray(p, dtype=float), k.shape)
    out = np.zeros_like(k)
    if k.size == 0:
        return out
    new = np.ones(k.shape, dtype=bool)
    new[1:] = (n[1:] != n[:-1]) | (p[1:] != p[:-1])
    starts = np.flatnonzero(new)
    lengths = np.diff(np.append(starts, k.size))
    run_n, run_p = n[starts], p[starts]
    # per run: the PMF at k = 0 and at k = n, and log n
    terms = [(math.exp(nn * math.log1p(-pp)), math.exp(nn * math.log1p(-(1.0 - pp))),
              math.log(nn)) if 0.0 < pp < 1.0 else (float(pp == 0.0), float(pp == 1.0), 0.0)
             for nn, pp in zip(run_n.tolist(), run_p.tolist())]
    at_0, at_n, log_n = (np.repeat(column, lengths) for column in zip(*terms))
    out[k == 0] = at_0[k == 0]
    out[k == n] = at_n[k == n]
    inner = (k > 0) & (k < n) & np.repeat((run_p > 0.0) & (run_p < 1.0), lengths)
    if inner.any():
        x, nn, pp = k[inner], n[inner], p[inner]
        lc = (np.repeat(_stirlerr(run_n), lengths)[inner] - _stirlerr(x) - _stirlerr(nn - x)
              - _bd0(x, nn * pp) - _bd0(nn - x, nn * (1.0 - pp)))
        out[inner] = np.exp(lc - 0.5 * (_LN_2PI + np.log(x) + np.log(nn - x) - log_n[inner]))
    return out


# Entries per evaluation pass over the binomial windows: bounds the
# evaluator's temporaries (a few dozen float arrays of this length) whatever
# the census size, while keeping numpy's per-call cost small.
_PASS_ENTRIES = 8_192
# A binomial PMF entry is at most exp(stirlerr(n) - n KL(k / n || p)), with
# stirlerr(n) < 0.082, so outside n KL <= ln(1e300) + 1 it is below 1e-300.
_WINDOW_LOG = -math.log(_PMF_FLOOR) + 1.0


def _first_windows(n: np.ndarray, p: np.ndarray, bound: float = _WINDOW_LOG
                   ) -> tuple[np.ndarray, np.ndarray]:
    """First window [lo, hi] of each Binomial(n, p): the values k with
    n KL(k / n || p) <= ``bound`` and the next value out on each side,
    within [0, n], bisected for all blocks at once.  For p in {0, 1} the
    point mass and the value next to it."""
    lo = np.where(p < 1.0, 0, n - 1)
    hi = np.where(p > 0.0, n, 1)
    live = (p > 0.0) & (p < 1.0)
    if live.any():
        trials = n[live].astype(float)
        nn, pp = np.tile(trials, 2), np.tile(p[live], 2)
        log_mean, log_nq = np.log(nn * pp), np.log(nn * (1.0 - pp))
        inside = nn * pp  # KL is 0 there and grows away from it on each side
        outside = np.concatenate([np.zeros_like(trials), trials])
        while (wide := np.flatnonzero(np.abs(outside - inside) > 1.0)).size:
            mid = 0.5 * (inside[wide] + outside[wide])
            rest = nn[wide] - mid
            within = (mid * (np.log(mid) - log_mean[wide])
                      + rest * (np.log(rest) - log_nq[wide])) <= bound
            inside[wide[within]] = mid[within]
            outside[wide[~within]] = mid[~within]
        below, above = np.split(outside, 2)
        lo[live], hi[live] = np.floor(below), np.ceil(above)
    return np.maximum(lo, 0), np.minimum(hi, n)


def _binom_entries(n: np.ndarray, p: np.ndarray, lo: np.ndarray, hi: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Binomial(n, p) PMF of each block on [lo, hi], the windows one after
    another in one array, evaluated in passes of at most ``_PASS_ENTRIES``
    entries; with each window's start and end offset in it."""
    size = hi - lo + 1
    end = np.cumsum(size)
    start = end - size
    pmf = np.empty(int(end[-1]))
    for first in range(0, len(pmf), _PASS_ENTRIES):
        at = np.arange(first, min(first + _PASS_ENTRIES, len(pmf)))
        b = np.searchsorted(end, at, side="right")
        pmf[at] = _binom_pmf(lo[b] + (at - start[b]), n[b], p[b])
    return pmf, start, end


def _binom_windows(blocks: Sequence[TrialGroup]) -> list[tuple[int, np.ndarray]]:
    """Binomial(count, success_prob) PMF of each block (count >= 1) on the
    window of values where it is >= 1e-300, as (first value, PMF) pairs.

    The windows come from the Chernoff bound (``_first_windows``), and all
    of them are evaluated together, in passes of at most ``_PASS_ENTRIES``
    entries.  The PMF is unimodal and each window straddles the mode, so an
    edge entry inside [0, n] still at or above the floor would mean the
    bound cut off mass: a ``NumericalIntegrityError``.  Sub-floor entries
    at either edge are cut, since ``DiscreteDistribution`` would zero them
    anyway.
    """
    if not blocks:
        return []
    n = np.array([g.count for g in blocks], dtype=np.int64)
    p = np.array([g.success_prob for g in blocks])
    lo, hi = _first_windows(n, p)
    pmf, start, end = _binom_entries(n, p, lo, hi)
    short = ((lo > 0) & (pmf[start] >= _PMF_FLOOR)) | ((hi < n) & (pmf[end - 1] >= _PMF_FLOOR))
    if short.any():
        i = int(np.argmax(short))
        raise NumericalIntegrityError(f"binomial window [{lo[i]}, {hi[i]}] of Binomial({n[i]}, "
                                      f"{float(p[i])!r}) cuts off entries at or above 1e-300")
    at = np.arange(len(pmf))
    kept = pmf >= _PMF_FLOOR  # each window keeps at least its mode
    first = np.minimum.reduceat(np.where(kept, at, len(pmf)), start)
    last = np.maximum.reduceat(np.where(kept, at, -1), start)
    return [(w + f - s, pmf[f:t + 1]) for w, s, f, t in
            zip(lo.tolist(), start.tolist(), first.tolist(), last.tolist())]


def pb_pmf(groups: Sequence[TrialGroup] | Iterable[TrialGroup]) -> DiscreteDistribution:
    """Exact PMF of the number of successes over all trials of all groups.

    Sequential direct convolution of the groups' binomial PMFs, each
    restricted to the window where it is >= 1e-300; an empty input is a
    point mass at 0.
    """
    support_min, pmf = 0, np.array([1.0])
    for lo, block in _binom_windows([g for g in groups if g.count > 0]):
        support_min += lo
        pmf = np.convolve(pmf, block)
    return DiscreteDistribution(support_min, pmf)


# Tilted windows keep the values with n KL(k / n || p) <= 15^2 / 2, +-15 sd
# in the normal limit; by the Chernoff bound the mass left out is at most
# 2 exp(-112.5) < 1e-48 of a block.
_TILT_LOG = 15.0 ** 2 / 2


def _expits(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """expit(z) and expit(-z) without overflow, from one e = exp(-|z|):
    1 / (1 + e) for whichever of z, -z is >= 0, e / (1 + e) for the other."""
    e = np.exp(-np.abs(z))
    big, small, ahead = 1.0 / (1.0 + e), e / (1.0 + e), z >= 0.0
    return np.where(ahead, big, small), np.where(ahead, small, big)


def _thetas(owner: np.ndarray, n: np.ndarray, logit: np.ndarray, sign: np.ndarray,
            v: np.ndarray) -> np.ndarray:
    """theta[i] with E_theta[D] = v[i] for D the sum of sign * Binomial(n,
    expit(logit + sign theta)) over the (n, logit, sign) blocks with owner
    i: Newton steps on arrays, each measure's kept inside the bracket of its
    root found so far, bisecting it (or doubling the step while it is open)
    when a step leaves it.  A measure stops once its tilted mean is within
    1e-6 sd of v[i], or after 200 steps; its sums add its own blocks in
    order (``np.bincount``), so its theta does not depend on the others.
    Any theta gives the same tail, a closer one only a better-centred PMF."""
    theta, below, above = np.zeros(len(v)), np.full(len(v), -np.inf), np.full(len(v), np.inf)
    todo = np.arange(len(v))
    with np.errstate(divide="ignore", invalid="ignore"):  # nan and inf as in Python floats
        for _ in range(200):
            p, q = _expits(logit + sign * theta[owner])
            var = np.bincount(owner, n * p * q, len(v))[todo]
            gap = np.bincount(owner, sign * n * p, len(v))[todo] - v[todo]
            going = np.abs(gap) > 1e-6 * np.sqrt(var)
            todo, gap, var = todo[going], gap[going], var[going]
            if not todo.size:
                break
            t, low = theta[todo], gap < 0
            below[todo[low]], above[todo[~low]] = t[low], t[~low]
            b, a, step = below[todo], above[todo], t - gap / var
            theta[todo] = np.where((b < step) & (step < a), step, np.where(np.isfinite(b + a),
                0.5 * (b + a), t - np.copysign(np.maximum(1.0, 2.0 * np.abs(t)), gap)))
            kept = np.isin(owner, todo)
            owner, n, logit, sign = owner[kept], n[kept], logit[kept], sign[kept]
    return theta


def _exact_tails(v: np.ndarray, deviation: np.ndarray,
                 blocks: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]) -> list[float]:
    """The inclusive tail of measure i's D = X - Y at v[i] in the direction
    of deviation[i], from its blocks among the (measure, n, p, sign) columns
    (each sign * Binomial(n, p), grouped by measure in ascending order): 1
    at the null mean or with the whole support in the tail, 0 past its
    edge, the product of each block's PMF at its extreme (Y's side times
    X's) on the edge, else by tilting.

    Under the measure tilted by theta, P_theta(d) = exp(theta d) P(d) /
    M(theta), each block of X stays a binomial of success probability
    expit(logit p + theta) and each of Y one of expit(logit p - theta).
    theta is solved so that the tilted mean is v (``_thetas``), and then

        P(D >= v) = exp(log M(theta) - theta v) sum_{d >= v} exp(-theta (d - v)) P_theta(d),

    the <= tail likewise over d <= v, with log M(theta) - theta v = theta
    (E_theta[D] - v) - sum n KL(p_theta || p), Loader's deviances.  The
    tilted blocks of all measures are evaluated in one batch, each on its
    ``_TILT_LOG`` window as the count of its rarer outcome, and each
    measure's P_theta comes from its own rfft product.  A difference mass
    farther than 1e-9 from 1 is a NumericalIntegrityError; a tail below
    1e-300 is 0.  Every entry, theta, window and FFT length follows from the
    measure's own blocks, so a tail does not depend on its batch-mates.
    """
    measure, n, p, sign = blocks
    live, of = (n > 0) & (p > 0.0) & (p < 1.0), deviation[measure]
    sums = np.zeros((len(v), 3), np.int64)  # exact: the point masses' shift, trials ahead, behind
    np.add.at(sums, measure, np.stack([sign * n * (p == 1.0), n * (live & (sign == of)),
                                       n * (live & (sign == -of))], axis=1))
    shift, ahead, behind = sums.T
    reach = deviation * (v - shift)  # where the tail starts, counted in its direction
    tails = (reach <= -behind).astype(float)  # 1 at the mean or for the whole support
    for i in np.flatnonzero((reach == ahead) & (reach > -behind)).tolist():  # on the edge
        mine = live & (measure == i)
        trials, signs = n[mine], sign[mine]
        at = _binom_pmf(np.where(signs == deviation[i], trials, 0), trials, p[mine])
        tail = math.prod(at[signs < 0].tolist()) * math.prod(at[signs > 0].tolist())
        tails[i] = tail if tail >= _PMF_FLOOR else 0.0
    inside = (reach < ahead) & (reach > -behind)  # theta is finite
    if not inside.any():
        return tails.tolist()
    kept, tilted = live & inside[measure], np.flatnonzero(inside)
    n, p, sign = n[kept], p[kept], sign[kept]
    ranges = np.searchsorted(measure[kept], [tilted, tilted + 1]).T.tolist()
    owner, logit = np.searchsorted(tilted, measure[kept]), np.log(p) - np.log1p(-p)
    thetas = _thetas(owner, n, logit, sign, (v - shift)[tilted])
    p_t, q_t = _expits(logit + sign * thetas[owner])
    tilted, v, shift, thetas = tilted.tolist(), v.tolist(), shift.tolist(), thetas.tolist()
    deviance = _bd0(n * p_t, n * p) + _bd0(n * q_t, n * (1.0 - p))
    # each block as the count k of its rarer outcome, then as a PMF over
    # increasing values of sign * successes from the least of them
    flip = p_t > 0.5
    rarer = np.where(flip, q_t, p_t)
    lo, hi = _first_windows(n, rarer, _TILT_LOG)
    pmf, start, end = _binom_entries(n, rarer, lo, hi)
    mirrored = (flip != (sign < 0)).tolist()
    least = np.where(flip, np.where(sign > 0, n - hi, lo - n), np.where(sign > 0, lo, -hi))
    for i, (a, b), theta in zip(tilted, ranges, thetas):
        log_scale = theta * (float(sign[a:b] @ (n[a:b] * p_t[a:b])) + shift[i] - v[i]) - float(
            np.sum(deviance[a:b]))
        size = int(np.sum(hi[a:b] - lo[a:b])) + 1
        length = 1 << (size - 1).bit_length()
        spectrum = 1.0
        for j in range(a, b):
            window = pmf[start[j]:end[j]]
            spectrum = spectrum * np.fft.rfft(window[::-1] if mirrored[j] else window, length)
        density = np.maximum(np.fft.irfft(spectrum, length)[:size], 0.0)
        total = float(density.sum())
        if abs(total - 1.0) > _PMF_SUM_TOL:
            raise NumericalIntegrityError(f"tilted difference pmf sums to {total!r}, deviating "
                                          f"from 1 by more than {_PMF_SUM_TOL}")
        at = v[i] - shift[i] - int(least[a:b].sum())  # index of v
        d = np.arange(max(at, 0), size) if deviation[i] > 0 else np.arange(min(at + 1, size))
        tail = math.exp(log_scale) * float(np.exp(-theta * (d - at)) @ density[d])
        tails[i] = tail if tail >= _PMF_FLOOR else 0.0
    return tails.tolist()


# The 15 non-empty sets of (r, s) outcome columns, in the order of their
# ascending column tuples: (0,), (0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 1, 3), ...
_COLUMN_SETS = sorted(tuple(c for c in range(4) if m >> c & 1) for m in range(1, 16))
_SET_COLUMNS = np.array([[c in cols for c in range(4)] for cols in _COLUMN_SETS])
_SET_RANK = np.zeros(16, np.intp)  # column bit mask (column c is bit c) -> rank
_SET_RANK[[sum(1 << c for c in cols) for cols in _COLUMN_SETS]] = np.arange(15)


# Most entries a side's tilted windows may span for the exact engine to
# run: 4 MB of PMF a side, and an FFT of at most 2**20 entries a measure.
_MAX_SIDE_WINDOW = 1 << 19


def _check_exact_work(side: np.ndarray, trials: np.ndarray, measures: Sequence) -> np.ndarray:
    """The most entries each side's tilted windows can span, as a (k, 2)
    array from the sides and trials of the blocks of ``_side_blocks``;
    InputError, before any window is allocated, for the first measure with a
    side over ``_MAX_SIDE_WINDOW``.  By Pinsker's inequality n KL(k / n ||
    p) >= 2 (k - np)^2 / n, so a block of n trials keeps at most sqrt(2 n
    ``_TILT_LOG``) + 3 values, whatever its tilt; a measure's FFT spans both
    sides' windows."""
    n = trials.astype(float)
    sides = np.bincount(side, np.minimum(n + 1, np.sqrt(2 * _TILT_LOG * n) + 3),
                        2 * len(measures)).reshape(-1, 2)
    for measure, width in zip(measures, sides.max(axis=1).tolist()):
        if width > _MAX_SIDE_WINDOW:
            raise InputError(f"{measure if isinstance(measure, MeasureId) else 'custom measure'}: "
                             f"the exact engine would convolve binomial windows of up to "
                             f"{width:,.0f} entries on one side, over its bound of "
                             f"{_MAX_SIDE_WINDOW:,}; use --method bootstrap")
    return sides


def _side_blocks(model: NullModel, weights: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The binomial blocks of each side of (k, 64) weight rows, as arrays of
    their side, trials (>= 1) and success probability: side 2i is row i's
    positive side, 2i + 1 its negative side, the blocks in side order.  A
    side's cells are read off ``weights[i].reshape(2, 2, 2, 2, 4)`` by (x,
    y, p, q) group and (r, s) outcome column.

    A group's success probability depends only on its (p, q) row and its
    outcome columns, so groups sharing both add up to one binomial of their
    summed mass (exact in distribution).  A side's blocks come in (p, q,
    columns) order, each probability summed over its columns in ascending
    order.
    """
    on_side = weights.reshape(-1, 1, 16, 4) == np.array([1, -1])[:, None, None]
    columns = (on_side @ (1 << np.arange(4))).reshape(-1, 16)  # column bit mask by side, group
    masses = model.masses.ravel()
    side, group = np.nonzero((columns > 0) & (masses > 0))
    mass = np.zeros((len(columns), 60), np.int64)  # by side, then (p, q) row and column set
    np.add.at(mass, (side, (group & 3) * 15 + _SET_RANK[columns[side, group]]), masses[group])
    keys = np.flatnonzero(mass)
    side, rows, sets = keys // 60, keys // 15 % 4, keys % 15
    terms = np.where(_SET_COLUMNS[sets], model.p0.reshape(4, 4)[rows], 0.0)
    return side, mass.flat[keys], ((terms[:, 0] + terms[:, 1]) + terms[:, 2]) + terms[:, 3]


def _null_mean(model: NullModel, weights: np.ndarray, observed: int) -> tuple[float, int]:
    """The measure's null mean under the model and the sign of the observed
    deviation from it, shared by both engines.

    The mean sums mass * signed transitions / row total over the groups as
    one integer numerator over the lcm of the row totals, so it is correctly
    rounded and observed-vs-mean ties are decided exactly.
    """
    signed = (weights.reshape(2, 2, 2, 2, 4) * model.row_counts.reshape(2, 2, 4)).sum(axis=-1)
    groups = np.nonzero(signed)
    totals = model.row_totals[groups[2:]].tolist()
    den = math.lcm(*totals)
    num = sum(mass * count * (den // total) for mass, count, total in
              zip(model.masses[groups].tolist(), signed[groups].tolist(), totals))
    return num / den, (observed * den > num) - (observed * den < num)


def exact_test(table: DyadTable, measure: MeasureId | MeasureSpec,
               alpha: float = 0.05, two_sided: bool = False,
               model: NullModel | None = None) -> TestResult:
    """Exact tail probability of a measure under the null model.

    The model is fitted from the table unless an explicit one is given
    (e.g. to test data against the model that generated it).  This is the
    one-measure exact case of ``run_all``.
    """
    config = InferenceConfig(method="exact", alpha=alpha, two_sided=two_sided,
                             measures=(measure,))
    return _run_one(table, config, model)[0]


def bootstrap_test(table: DyadTable, measure: MeasureId | MeasureSpec,
                   trials: int, seed, alpha: float = 0.05,
                   two_sided: bool = False,
                   model: NullModel | None = None) -> TestResult:
    """Monte Carlo tail probability from ``trials`` null censuses.

    Deterministic given the seed.  This is the one-measure bootstrap case
    of ``run_all``: the same seed and trial count produce the same null
    censuses, so single-measure results match the batch run exactly.
    """
    config = InferenceConfig(method="bootstrap", trials=trials, alpha=alpha, seed=seed,
                             two_sided=two_sided, measures=(measure,))
    return _run_one(table, config, model)[0]


def run_all(table: DyadTable, config: InferenceConfig = InferenceConfig()
            ) -> list[TestResult]:
    """Run the configured method(s) for every measure.

    With ``method="both"`` each measure yields a bootstrap and an exact
    result (in that order); bootstrap trials are drawn once and shared
    across measures, exactly as if each census had been evaluated on all
    eight.  Trials are drawn and scored one chunk at a time and only tail
    counts are kept, so memory does not grow with ``config.trials``.
    Results are ordered by measure, then method.  This is ``run_items`` for
    one item, inline.
    """
    return _run_one(table, config)


def _run_one(table: DyadTable, config: InferenceConfig,
             model: NullModel | None = None) -> list[TestResult]:
    [outcome] = run_items([(table, config, model)])
    if isinstance(outcome, InputError):
        raise outcome
    return outcome


# Trials per bootstrap chunk: a chunk's null censuses are 16,384 x 64 int64
# cell counts (8.4 MB), whatever the trial count.
_CHUNK_TRIALS = 16_384


def _chunks(trials: int) -> range:
    return range(-(-trials // _CHUNK_TRIALS))


def _tail_counts(model: NullModel, weights: np.ndarray, observed: np.ndarray,
                 seed, trials: int, chunks: range) -> np.ndarray:
    """Counts of null values >= and <= ``observed[i]``, one row per row of
    the (k, 64) ``weights``, over the censuses of ``chunks``.

    Chunk j holds trials [j C, min((j + 1) C, trials)) for C =
    ``_CHUNK_TRIALS``, drawn from its own stream of ``seed`` and scored for
    every measure with one integer matrix product, so the counts over any
    split of the chunks add up to the counts over all of them.
    """
    counts = np.zeros((len(weights), 2), dtype=np.int64)
    for j, rng in zip(chunks, _chunk_streams(seed, chunks)):
        n = min(_CHUNK_TRIALS, trials - j * _CHUNK_TRIALS)
        values = _sample_group_outcomes(model, n, rng) @ weights.T
        counts[:, 0] += np.count_nonzero(values >= observed, axis=0)
        counts[:, 1] += np.count_nonzero(values <= observed, axis=0)
        del values  # freed before the next chunk is drawn, not after
    return counts


class _Plan(NamedTuple):
    """One item's run: its settings and model, and per measure the weight
    row, the observed value, (null mean, sign of the deviation) and, for an
    exact run, its sides' binomial blocks and window widths."""

    config: InferenceConfig
    model: NullModel
    weights: np.ndarray   # (k, 64)
    observed: np.ndarray  # (k,) int64
    means: list[tuple[float, int]]
    blocks: tuple[np.ndarray, ...] | None = None  # (side, trials, p), ``_side_blocks``
    windows: np.ndarray | None = None  # (k, 2), ``_check_exact_work``


def _plan(table: DyadTable, config: InferenceConfig, model: NullModel | None) -> _Plan:
    model = model if model is not None else fit(table)
    if model.total == 0:
        raise InputError("cannot test against a null model fitted from an empty table")
    weights = np.stack([(spec_for(m) if isinstance(m, MeasureId) else m).weights
                        for m in config.measures])
    blocks = _side_blocks(model, weights) if config.method != "bootstrap" else None
    windows = None if blocks is None else _check_exact_work(*blocks[:2], config.measures)
    observed = weights @ table.counts
    return _Plan(config, model, weights, observed,
                 [_null_mean(model, w, int(v)) for w, v in zip(weights, observed)],
                 blocks, windows)


def _run_task(task: tuple[_Plan, range] | list[_Plan]):
    """One task of a run: an item's bootstrap tail counts over a range of
    chunks, or the exact tail of every measure of a batch of items, their
    block arrays joined into one ``_exact_tails`` call."""
    if isinstance(task, tuple):
        plan, chunks = task
        return _tail_counts(plan.model, plan.weights, plan.observed, plan.config.seed,
                            plan.config.trials, chunks)
    first = np.cumsum([0] + [len(plan.observed) for plan in task])  # each item's first measure
    side = np.concatenate([plan.blocks[0] + 2 * i for plan, i in zip(task, first)])
    trials, p = (np.concatenate([plan.blocks[j] for plan in task]) for j in (1, 2))
    return _exact_tails(np.concatenate([plan.observed for plan in task]),
                        np.array([d for plan in task for _, d in plan.means]),
                        (side // 2, trials, p, 1 - 2 * (side % 2)))


def _exact_batches(plans: list[_Plan], workers: int) -> list[list[_Plan]]:
    """The exact items' plans in consecutive batches of summed window width
    at most a worker's share of the total plus the widest item's, so that a
    batch closes only past its share and there is one per worker at most,
    and at most what one item of the eight measures may span (2 x 8 x
    ``_MAX_SIDE_WINDOW``), which bounds memory whatever the item count."""
    widths = [float(plan.windows.sum()) for plan in plans]
    cap = min(2 * len(MeasureId) * _MAX_SIDE_WINDOW,
              sum(widths) / max(1, min(workers, len(plans))) + max(widths, default=0.0))
    batches, load = [], math.inf
    for plan, width in zip(plans, widths):
        if load + width > cap:
            batches.append([])
            load = 0.0
        batches[-1].append(plan)
        load += width
    return batches


_DIRECTIONS = {1: DIRECTION_POSITIVE, -1: DIRECTION_NEGATIVE, 0: DIRECTION_NONE}


def _results(plan: _Plan, counts: np.ndarray | None, tails: list[float] | None
             ) -> list[TestResult]:
    """An item's results, by measure then method, from its tail counts over
    all chunks and its exact tails, each None when its method is not run.

    A bootstrap p-value is the share of null values on the observed side of
    the model's mean; its add-one value counts the observed census too.
    """
    config, trials = plan.config, plan.config.trials
    results = []
    for i, (m, v, (null_mean, deviation)) in enumerate(
            zip(config.measures, plan.observed.tolist(), plan.means)):
        found = []
        if counts is not None:
            ge, le = counts[i].tolist()
            hits = ge if deviation > 0 else le if deviation < 0 else trials
            found.append(("bootstrap", hits / trials, trials, (hits + 1) / (trials + 1)))
        if tails is not None:
            found.append(("exact", tails[i], None, None))
        for method, p, n, p_addone in found:
            if config.two_sided:
                p = min(1.0, 2.0 * p)
                if p_addone is not None:
                    p_addone = min(1.0, 2.0 * p_addone)
            results.append(TestResult(
                measure=m if isinstance(m, MeasureId) else None, observed=v,
                null_mean=float(null_mean), direction=_DIRECTIONS[deviation],
                p_value=float(p), method=method, alpha=config.alpha,
                significant=bool(p < config.alpha), trials=n, p_value_addone=p_addone,
                two_sided=config.two_sided))
    return results


def run_items(work: Sequence[tuple[DyadTable, InferenceConfig, NullModel | None]],
              workers: int = 1, map_tasks=map) -> list[list[TestResult] | InputError]:
    """The one run plan behind ``run_all``, ``bootstrap_test``, ``exact_test``
    and ``evaluate_items``: each (table, config, model) item's results, or
    the InputError that stopped it (such as an empty table), in order.

    Each item's model is fitted once unless given, and each measure's
    observed value, null mean, direction and binomial block arrays are taken
    once.  The items' bootstrap chunks then go out in ranges, about four per
    worker over all items, and their exact work as at most one batch per
    worker (``_exact_batches``), each one ``_exact_tails`` call;
    ``map_tasks(fn, tasks)`` runs them and returns their outcomes in order
    (``map``, inline, by default; forked children from ``evaluate_items``).
    Counts over an item's ranges add up to its counts over all chunks, and
    a tail does not depend on its batch-mates, so results depend neither on
    the split nor on the worker count.
    """
    plans: list[_Plan | InputError] = []
    for table, config, model in work:
        try:
            plans.append(_plan(table, config, model))
        except InputError as exc:
            plans.append(exc)
    ready = [(i, plan) for i, plan in enumerate(plans) if isinstance(plan, _Plan)]
    boot = {i: _chunks(plan.config.trials) for i, plan in ready
            if plan.config.method != "exact"}
    step = max(1, -(-sum(map(len, boot.values())) // (4 * workers)))
    ranges = [(i, chunks[k:k + step]) for i, chunks in boot.items()
              for k in range(0, len(chunks), step)]
    exact = [i for i, plan in ready if plan.config.method != "bootstrap"]
    outcomes = list(map_tasks(_run_task, [(plans[i], chunks) for i, chunks in ranges]
                              + _exact_batches([plans[i] for i in exact], workers)))
    counts = dict.fromkeys(boot, 0)
    for (i, _), part in zip(ranges, outcomes):
        counts[i] = counts[i] + part
    found = chain.from_iterable(outcomes[len(ranges):])  # every exact tail, in item order
    tails = {i: list(islice(found, len(plans[i].config.measures))) for i in exact}
    return [plan if isinstance(plan, InputError) else _results(plan, counts.get(i), tails.get(i))
            for i, plan in enumerate(plans)]


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
