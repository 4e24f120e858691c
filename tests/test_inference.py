import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from dyadeval import (DiscreteDistribution, DyadTable, InferenceConfig,
                      InputError, MeasureId, NumericalIntegrityError,
                      TrialGroup, bootstrap_test, evaluate, exact_test, fit,
                      method_disagreement, pb_pmf, run_all, simulate_dyad_table)
from dyadeval import MeasureSpec, SimParams, sample
from dyadeval import inference, io
from dyadeval.inference import (_CHUNK_TRIALS, _MAX_SIDE_WINDOW, _PASS_ENTRIES, _STIRLERR,
                                _TILT_LOG, _WINDOW_LOG, _binom_pmf, _binom_windows,
                                _exact_tails, _side_blocks, _stirlerr,
                                run_items)
from dyadeval.null_model import _sample_group_outcomes
from dyadeval.measures import spec_for

from oracles import (binom_window_by_growth, cell_code, difference_distribution,
                     difference_pmf_by_double_loop, difference_pmf_by_fractions,
                     difference_tail, direct_tail, distribution_mean,
                     enumeration_cost, exact_test_by_full_convolution,
                     measure_cells_by_formula, measure_values_by_formula,
                     null_distribution_by_enumeration,
                     pb_pmf_by_subsets, side_blocks_by_columns,
                     tail_probability_from_distribution)


def table_from(cells_counts):
    counts = np.zeros(64, dtype=np.int64)
    for bits, n in cells_counts.items():
        counts[cell_code(*bits)] = n
    return DyadTable(counts)


def small_random_table(rng, max_total=12):
    n = int(rng.integers(1, max_total + 1))
    counts = np.bincount(rng.integers(0, 64, size=n), minlength=64)
    return DyadTable(counts.astype(np.int64))


# ---------------------------------------------------------------- pb_pmf

def test_pb_single_bernoulli():
    dist = pb_pmf([TrialGroup(1, 0.3)])
    assert dist.support_min == 0
    assert dist.pmf.tolist() == pytest.approx([0.7, 0.3], abs=1e-15)


def test_pb_fair_binomial():
    dist = pb_pmf([TrialGroup(2, 0.5)])
    assert dist.pmf.tolist() == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)


def test_pb_empty_is_point_mass():
    dist = pb_pmf([])
    assert dist.support_min == 0
    assert dist.pmf.tolist() == [1.0]


def test_pb_matches_subset_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(30):
        k = int(rng.integers(1, 5))
        counts = rng.multinomial(int(rng.integers(1, 16)), np.full(k, 1 / k))
        groups = [TrialGroup(int(c), float(rng.random())) for c in counts]
        dist = pb_pmf(groups)
        probs = [g.success_prob for g in groups for _ in range(g.count)]
        oracle = pb_pmf_by_subsets(probs)
        assert len(dist.pmf) == len(oracle)
        assert max(abs(a - b) for a, b in zip(dist.pmf, oracle)) <= 1e-12


def test_pb_group_order_invariance():
    groups = [TrialGroup(5, 0.2), TrialGroup(3, 0.9), TrialGroup(7, 0.41)]
    a = pb_pmf(groups)
    b = pb_pmf(groups[::-1])
    assert np.max(np.abs(a.pmf - b.pmf)) <= 1e-12


def test_pb_mean_identity_and_normalization():
    rng = np.random.default_rng(29)
    groups = [TrialGroup(int(rng.integers(0, 400)), float(rng.random()))
              for _ in range(4)]
    dist = pb_pmf(groups)
    assert abs(dist.pmf.sum() - 1.0) <= 1e-9
    assert distribution_mean(dist.support_min, dist.pmf) == pytest.approx(
        sum(g.count * g.success_prob for g in groups), abs=1e-9)


def test_pb_normalization_at_large_scale():
    # one large group plus a multi-group mix totaling 10^5 trials
    assert abs(pb_pmf([TrialGroup(100_000, 0.37)]).pmf.sum() - 1.0) <= 1e-9
    mix = [TrialGroup(5000, 0.1), TrialGroup(5000, 0.62),
           TrialGroup(5000, 0.97), TrialGroup(5000, 0.5)]
    assert abs(pb_pmf(mix).pmf.sum() - 1.0) <= 1e-9


@pytest.mark.parametrize("count", [100_000, 1_000_000])
@pytest.mark.parametrize("prob", [1e-4, 0.37, 0.9999])
def test_pb_trimmed_window_matches_full_support(count, prob):
    dist = pb_pmf([TrialGroup(count, prob)])
    full = binom.pmf(np.arange(count + 1), count, prob)
    lo, hi = dist.support_min, dist.support_max
    assert np.max(np.abs(dist.pmf - full[lo:hi + 1])) <= 1e-12
    assert full[:lo].sum() + full[hi + 1:].sum() < 1e-280
    # trimming stays on: the window is about 75 sd wide, not count + 1
    sd = np.sqrt(count * prob * (1 - prob))
    assert len(dist.pmf) <= 80 * sd + 82


_GRID_PROBS = (1e-4, 1e-3, 0.0999, 0.1, 0.37, 0.5, 0.9, 0.9001, 0.9999)


@pytest.mark.parametrize("prob", _GRID_PROBS)
def test_binom_pmf_matches_scipy(prob):
    # the window, k in {0, 1, n - 1, n} and random k, for n from 1 to 3M
    rng = np.random.default_rng(606)
    drawn = np.exp(rng.uniform(np.log(3), np.log(3_000_000), size=12)).astype(int)
    for n in sorted({1, 2, 15, 16, 3_000_000, *drawn.tolist()}):
        [(lo, block)] = _binom_windows([TrialGroup(n, prob)])
        k = np.unique(np.concatenate([np.arange(lo, lo + len(block)), [0, 1, n - 1, n],
                                      rng.integers(0, n + 1, size=200)]))
        ours, ref = _binom_pmf(k, n, prob), binom.pmf(k, n, prob)
        big = ref >= 1e-280
        assert np.all(np.abs(ours[big] - ref[big]) <= 1e-10 * ref[big]), n
        assert np.all(np.abs(ours[~big] - ref[~big]) <= 1e-280), n


def window_grid_blocks(seed):
    rng = np.random.default_rng(seed)
    drawn = np.exp(rng.uniform(np.log(3), np.log(3_000_000), size=6)).astype(int)
    return [TrialGroup(n, prob)
            for n in (1, 2, 15, 16, 3_000_000, *drawn.tolist())
            for prob in (0.0, 1e-4, 0.0999, 0.37, 0.9999, 1.0, float(rng.uniform()))]


@pytest.mark.parametrize("pass_entries", [_PASS_ENTRIES, 97])
def test_binom_windows_match_growth_oracle(monkeypatch, pass_entries):
    # whole grid lists, shuffled, cut short and one block at a time: every
    # window has the oracle's first value and bit-identical entries, also
    # for blocks that straddle a pass boundary
    monkeypatch.setattr(inference, "_PASS_ENTRIES", pass_entries)
    rng = np.random.default_rng(707)
    blocks = window_grid_blocks(708)
    expected = {g: binom_window_by_growth(g.count, g.success_prob) for g in blocks}
    straddled = 0
    for order in (blocks, list(rng.permutation(blocks)), blocks[:9], *([g] for g in blocks[::5])):
        windows = _binom_windows(order)
        assert len(windows) == len(order)
        for g, (lo, block) in zip(order, windows):
            assert lo == expected[g][0], g
            assert np.array_equal(block, expected[g][1]), g
        lo, hi = inference._first_windows(np.array([g.count for g in order]),
                                          np.array([g.success_prob for g in order]))
        end = np.cumsum(hi - lo + 1)
        straddled += int(np.sum((end - 1) // pass_entries > (end - (hi - lo + 1)) // pass_entries))
    assert straddled > 10


@pytest.mark.parametrize("side", ["lo", "hi"])
def test_too_narrow_window_is_integrity_error(monkeypatch, side):
    # a first window that cuts off an entry at or above 1e-300 fails loudly
    # instead of dropping mass
    first_windows = inference._first_windows

    def narrowed(n, p):  # the second block's window only
        lo, hi = first_windows(n, p)
        cut = np.where(n == 1000, 5, 0)
        return (lo + cut, hi) if side == "lo" else (lo, hi - cut)

    monkeypatch.setattr(inference, "_first_windows", narrowed)
    with pytest.raises(NumericalIntegrityError, match=r"binomial window \[\d+, \d+\] of "
                                                      r"Binomial\(1000, 0\.3\) cuts off"):
        _binom_windows([TrialGroup(40, 0.5), TrialGroup(1000, 0.3)])


def side_groups(blocks, sides):
    """The (side, trials, p) block arrays of ``_side_blocks`` as one list of
    TrialGroups per side, for the oracles."""
    side, trials, p = blocks
    return [[TrialGroup(n, q) for n, q in zip(trials[side == s].tolist(), p[side == s].tolist())]
            for s in range(sides)]


def test_exact_tails_match_growth_oracle():
    # run_all's exact tails equal, within 1e-12 relative, the direct tails
    # of the per-block windows of the oracle, convolved side by side in the
    # engine's order
    for seed in range(50):
        table = simulate_dyad_table(SimParams(seed=seed), node_count=60 + 20 * seed)
        model = fit(table)
        for res in run_all(table, InferenceConfig(method="exact")):
            weights = spec_for(res.measure).weights
            sides = []
            for blocks in side_groups(_side_blocks(model, weights), 2):
                support_min, pmf = 0, np.array([1.0])
                for g in blocks:
                    lo, block = binom_window_by_growth(g.count, g.success_prob)
                    support_min += lo
                    pmf = np.convolve(pmf, block)
                sides.append(DiscreteDistribution(support_min, pmf))
            deviation = {"positive": 1, "negative": -1, "none": 0}[res.direction]
            want = difference_tail(*sides, res.observed, deviation)
            assert abs(res.p_value - want) <= 1e-12 * want, (seed, res.measure)


def test_side_blocks_match_per_side_oracle():
    # the blocks of all sides of the eight measures and of random signed
    # weight rows (up to four columns a group), built in one pass, are the
    # blocks the per-side, per-column loop builds: same order, counts and
    # bit-identical probabilities
    rng = np.random.default_rng(5)
    weights = np.concatenate([np.stack([spec_for(m).weights for m in MeasureId]),
                              rng.integers(-1, 2, (12, 64))])
    expected = lambda model: [side_blocks_by_columns(model, w, sign)
                              for w in weights for sign in (1, -1)]
    for seed in range(50):
        model = fit(simulate_dyad_table(SimParams(seed=seed), node_count=40 + 10 * seed))
        assert side_groups(_side_blocks(model, weights), 2 * len(weights)) == expected(model), seed
    undefined = 0
    for case in range(30):
        # sparse random tables, some of whose pre-state rows are empty, so
        # that their models have undefined rows
        counts = rng.integers(0, 50, (2, 2, 2, 2, 2, 2)) * (rng.random((2,) * 6) < 0.6)
        counts *= (rng.random((2, 2)) < 0.8)[:, :, None, None]
        model = fit(DyadTable(counts.ravel()))
        undefined += not model.row_defined.all()
        assert side_groups(_side_blocks(model, weights), 2 * len(weights)) == expected(model), case
    assert undefined >= 10


def test_exact_task_work_is_bounded(monkeypatch):
    # one exact task on a ~11k-dyad table, 8 measures: one batch of tilted
    # windows, evaluated in more than one pass, none over the cap, each
    # entry once, and each window within the exact-work bound's sizing (a
    # ~5k-dyad table's ~7k entries fit in one pass)
    batches, passes = [], []
    full_pmf, full_entries = _binom_pmf, inference._binom_entries

    def counted_pmf(k, n, p):
        passes.append(len(k))
        return full_pmf(k, n, p)

    def counted_entries(n, p, lo, hi):
        batches.append((n, hi - lo + 1))
        return full_entries(n, p, lo, hi)

    monkeypatch.setattr(inference, "_binom_pmf", counted_pmf)
    monkeypatch.setattr(inference, "_binom_entries", counted_entries)
    table = simulate_dyad_table(SimParams(seed=3), node_count=2_000)
    assert 10_000 <= table.total <= 12_000
    results = run_all(table, InferenceConfig(method="exact"))
    assert all(r.direction != "none" for r in results)
    [(n, widths)] = batches
    assert len(passes) > 1 and max(passes) <= _PASS_ENTRIES
    assert sum(passes) == widths.sum()
    assert np.all(widths <= np.sqrt(2 * _TILT_LOG * n) + 3)


def test_measures_at_their_null_mean_evaluate_nothing(monkeypatch):
    # a uniform census of 64 x 250,000 dyads: every measure sits at its null
    # mean, so its tail is 1 without one binomial entry evaluated
    def refused(*args):
        raise AssertionError("a measure with no deviation evaluated binomial entries")

    monkeypatch.setattr(inference, "_binom_entries", refused)
    results = run_all(DyadTable(np.full(64, 250_000)), InferenceConfig(method="exact"))
    assert [(r.direction, r.p_value) for r in results] == [("none", 1.0)] * len(MeasureId)


def test_exact_bound_sizes_the_windows_that_run(monkeypatch):
    # a census whose largest sides exceed the exact-work bound when sized
    # at pb_pmf's ~75-sd windows, as the bound once sized them, runs on its
    # ~30-sd tilted windows, and the windows evaluated stay within the bound
    rng = np.random.default_rng(1)
    counts = rng.multinomial(10 ** 6, np.full(64, 1 / 64)).reshape(16, 4)
    counts[12] += rng.multinomial(3 * 10 ** 8, np.full(4, 1 / 4))  # group x=1, y=1, p=0, q=0
    table = DyadTable(counts.ravel())
    weights = np.stack([spec_for(m).weights for m in MeasureId])
    side, trials, _ = _side_blocks(fit(table), weights)
    n = trials.astype(float)
    direct_widths = np.bincount(side, np.minimum(n + 1, np.sqrt(2 * _WINDOW_LOG * n) + 3))
    assert direct_widths.max() > _MAX_SIDE_WINDOW
    windows = []
    full_entries = inference._binom_entries

    def counted_entries(n, p, lo, hi):
        windows.append(hi - lo + 1)
        return full_entries(n, p, lo, hi)

    monkeypatch.setattr(inference, "_binom_entries", counted_entries)
    results = run_all(table, InferenceConfig(method="exact"))
    assert all(r.direction != "none" and 0.0 < r.p_value < 1.0 for r in results)
    assert windows[0].sum() <= 2 * len(MeasureId) * _MAX_SIDE_WINDOW


def test_binom_pmf_point_masses():
    k = np.arange(8)
    assert _binom_pmf(k, 7, 0.0).tolist() == [1.0] + [0.0] * 7
    assert _binom_pmf(k, 7, 1.0).tolist() == [0.0] * 7 + [1.0]


def test_stirlerr_table_and_series_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for n in range(1, 41):
            exact = float(mpmath.loggamma(n + 1) - (mpmath.mpf(n) + 0.5) * mpmath.log(n)
                          + n - mpmath.log(2 * mpmath.pi) / 2)
            if n <= 15:
                assert abs(_STIRLERR[n] - exact) <= 1e-15
            assert abs(float(_stirlerr(n)) - exact) <= 1e-15


@pytest.mark.parametrize("group", [
    TrialGroup(0, 0.3),
    TrialGroup(50, 0.0),
    TrialGroup(50, 1.0),
    TrialGroup(2000, 0.01),   # window clipped at 0
    TrialGroup(2000, 0.995),  # window clipped at count
])
def test_pb_window_edges(group):
    dist = pb_pmf([group])
    full = binom.pmf(np.arange(group.count + 1), group.count, group.success_prob)
    kept = np.flatnonzero(full >= 1e-300)
    assert (dist.support_min, dist.support_max) == (kept[0], kept[-1])
    assert np.max(np.abs(dist.pmf - full[kept[0]:kept[-1] + 1])) <= 1e-12


@pytest.mark.parametrize("a, b, prob", [
    (1, 1, 0.5), (7, 300, 0.02), (40_000, 25_000, 0.37), (5_000, 12, 0.999)])
def test_pb_merging_equal_probabilities(a, b, prob):
    split = pb_pmf([TrialGroup(a, prob), TrialGroup(b, prob)])
    merged = pb_pmf([TrialGroup(a + b, prob)])
    lo = min(split.support_min, merged.support_min)
    hi = max(split.support_max, merged.support_max)

    def padded(dist):
        out = np.zeros(hi - lo + 1)
        out[dist.support_min - lo:dist.support_max - lo + 1] = dist.pmf
        return out

    assert np.max(np.abs(padded(split) - padded(merged))) <= 1e-12


def test_trial_group_validation():
    with pytest.raises(ValueError):
        TrialGroup(-1, 0.5)
    with pytest.raises(ValueError):
        TrialGroup(1, 1.5)


# ------------------------------------------- difference tails

def test_difference_point_masses():
    x = DiscreteDistribution(3, np.array([1.0]))
    y = DiscreteDistribution(1, np.array([1.0]))
    support_min, pmf = difference_distribution(x, y)
    assert support_min == 2
    assert pmf.tolist() == [1.0]
    for tail in (lambda v, d: difference_tail(x, y, v, d),
                 lambda v, d: engine_tail([TrialGroup(3, 1.0)], [TrialGroup(1, 1.0)], v, d)):
        assert [tail(v, 1) for v in (2, 3)] + [tail(v, -1) for v in (2, 1)] == [1.0, 0.0, 1.0, 0.0]


def test_difference_fair_bernoullis():
    x = pb_pmf([TrialGroup(1, 0.5)])
    support_min, pmf = difference_distribution(x, x)
    assert support_min == -1
    assert pmf.tolist() == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)
    fair = [TrialGroup(1, 0.5)]
    for tail in (lambda v, d: difference_tail(x, x, v, d),
                 lambda v, d: engine_tail(fair, fair, v, d)):
        assert [tail(v, 1) for v in (-1, 0, 1, 2)] == pytest.approx([1.0, 0.75, 0.25, 0.0])
        assert [tail(v, -1) for v in (-2, -1, 0, 1)] == pytest.approx([0.0, 0.25, 0.75, 1.0])


def test_difference_matches_double_loop():
    # the reference difference PMF against the double loop, and the
    # reference dot-product tails against that PMF's tail sums
    rng = np.random.default_rng(31)
    for _ in range(20):
        fx = rng.random(int(rng.integers(1, 9)))
        fx /= fx.sum()
        fy = rng.random(int(rng.integers(1, 9)))
        fy /= fy.sum()
        x_min, y_min = int(rng.integers(-5, 5)), int(rng.integers(-5, 5))
        x, y = DiscreteDistribution(x_min, fx), DiscreteDistribution(y_min, fy)
        support_min, pmf = difference_distribution(x, y)
        oracle, z_min = difference_pmf_by_double_loop(fx, x_min, fy, y_min)
        assert support_min == z_min
        assert max(abs(a - b) for a, b in zip(pmf, oracle)) <= 1e-12
        for v in range(z_min - 2, z_min + len(oracle) + 2):
            at = v - z_min
            assert abs(difference_tail(x, y, v, 1) - sum(oracle[max(at, 0):])) <= 1e-12
            assert abs(difference_tail(x, y, v, -1) - sum(oracle[:max(at + 1, 0)])) <= 1e-12


def test_difference_expectation_identity():
    rng = np.random.default_rng(37)
    fx = rng.random(12)
    fx /= fx.sum()
    fy = rng.random(7)
    fy /= fy.sum()
    x = DiscreteDistribution(2, fx)
    y = DiscreteDistribution(-3, fy)
    assert distribution_mean(*difference_distribution(x, y)) == pytest.approx(
        distribution_mean(2, fx) - distribution_mean(-3, fy), abs=1e-9)


# --------------------------------------------- DiscreteDistribution

def test_distribution_validation():
    with pytest.raises(NumericalIntegrityError):
        DiscreteDistribution(0, np.array([0.5, -0.1, 0.6]))
    with pytest.raises(NumericalIntegrityError):
        DiscreteDistribution(0, np.array([0.5, 0.4]))  # sums to 0.9


def test_distribution_clamps_tiny_entries():
    pmf = np.array([1.0, 1e-310])
    d = DiscreteDistribution(0, pmf)
    assert d.pmf[1] == 0.0


# ----------------------------------------------------- exact_test

def test_exact_degenerate_null_is_p_one():
    # every row deterministic: stay exactly where you started
    cells = {(x, y, p, q, p, q): 2 for x in (0, 1) for y in (0, 1)
             for p in (0, 1) for q in (0, 1)}
    table = table_from(cells)
    for measure in MeasureId:
        res = exact_test(table, measure)
        assert res.p_value == 1.0
        assert res.direction == "none"
        assert not res.significant


def test_exact_empty_table_rejected():
    with pytest.raises(InputError):
        exact_test(DyadTable(np.zeros(64, dtype=np.int64)), MeasureId.M1)


def test_exact_matches_enumeration_on_small_tables():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 40:
        table = small_random_table(rng)
        for measure in MeasureId:
            if enumeration_cost(table.counts, measure.value) > 100_000:
                continue
            res = exact_test(table, measure)
            dist = null_distribution_by_enumeration(table.counts, measure.value)
            p_oracle, dir_oracle = tail_probability_from_distribution(
                dist, evaluate(table, measure).value)
            assert abs(res.p_value - p_oracle) <= 1e-12
            assert res.direction == dir_oracle
            checked += 1
    assert checked >= 40


def test_exact_null_mean_matches_distribution_mean():
    # the null mean from the merged side walk against the mean of a PMF
    # built from one binomial per (x, y, p, q) group
    table = simulate_dyad_table()
    model = fit(table)
    for measure in MeasureId:
        res = exact_test(table, measure)
        sides = []
        for cells in measure_cells_by_formula(measure.name):
            groups = []
            for (x, y, p, q) in sorted({c[:4] for c in cells}):
                prob = sum(model.p0[p, q, r, s] for (r, s) in np.ndindex(2, 2)
                           if (x, y, p, q, r, s) in cells)
                groups.append(TrialGroup(int(model.masses[x, y, p, q]), float(prob)))
            sides.append(pb_pmf(groups))
        assert res.null_mean == pytest.approx(
            distribution_mean(*difference_distribution(*sides)), abs=1e-9)


def test_exact_matches_untrimmed_unmerged_reference_on_large_table():
    table = simulate_dyad_table(SimParams(seed=2024), node_count=3700)
    assert 18_000 <= table.total <= 22_000
    results = run_all(table, InferenceConfig(method="exact"))
    for res in results:
        p_ref, direction = exact_test_by_full_convolution(
            table.counts, *measure_cells_by_formula(res.measure.name))
        assert abs(res.p_value - p_ref) <= 1e-12
        assert res.direction == direction


def test_run_all_exact_matches_full_convolution_on_random_tables():
    # tails below 1e-300 are zero in the reference, which floors the
    # difference PMF, hence the absolute term
    rng = np.random.default_rng(909)
    for _ in range(12):
        total = int(rng.integers(200, 5000))
        counts = rng.multinomial(total, rng.dirichlet(np.full(64, 5.0)))
        table = DyadTable(counts.astype(np.int64))
        for res in run_all(table, InferenceConfig(method="exact")):
            p_ref, direction = exact_test_by_full_convolution(
                table.counts, *measure_cells_by_formula(res.measure.name))
            assert res.direction == direction
            assert abs(res.p_value - p_ref) <= 1e-12 * p_ref + 1e-300


def test_exact_custom_spec_keeps_outcome_sets_apart():
    # both positive quadrants use every (p, q) row, but with different
    # (r, s) outcome sets, so their groups must not merge
    pos = ({(1, 1, p, q, 0, s) for p in (0, 1) for q in (0, 1) for s in (0, 1)}
           | {(1, 0, p, q, r, 0) for p in (0, 1) for q in (0, 1) for r in (0, 1)})
    neg = {(0, y, p, q, 0, 0) for y in (0, 1) for p in (0, 1) for q in (0, 1)}
    table = simulate_dyad_table(SimParams(seed=4))
    res = exact_test(table, MeasureSpec(pos, neg))
    p_ref, direction = exact_test_by_full_convolution(table.counts, pos, neg)
    assert abs(res.p_value - p_ref) <= 1e-12
    assert res.direction == direction


def random_spec(rng):
    """Random cell subsets of two random disjoint sets of participation
    quadrants."""
    quadrants = [(int(x), int(y)) for x, y in rng.permutation([(0, 0), (0, 1), (1, 0), (1, 1)])]
    n_pos = int(rng.integers(1, 4))
    n_neg = int(rng.integers(1, 5 - n_pos))

    def cells(quads):
        return {(x, y, p, q, r, s) for x, y in quads
                for p, q, r, s in itertools.product((0, 1), repeat=4) if rng.random() < 0.5}

    return cells(quadrants[:n_pos]), cells(quadrants[n_pos:n_pos + n_neg])


def test_custom_specs_through_the_weight_row():
    # random specs on random tables of 5 to 30k dyads (log-uniform): the
    # exact engine against the unmerged full-support reference, evaluate
    # against direct cell sums, and the bootstrap against a count over the
    # censuses of its chunk streams, each evaluated on its own
    rng = np.random.default_rng(4242)
    for i in range(30):
        total = int(np.exp(rng.uniform(np.log(5), np.log(30_000))))
        counts = rng.multinomial(total, rng.dirichlet(np.full(64, rng.uniform(0.2, 5.0))))
        table = DyadTable(counts.astype(np.int64))
        pos, neg = random_spec(rng)
        spec = MeasureSpec(pos, neg)

        value = evaluate(table, spec)
        assert value.positive_sum == sum(int(counts[cell_code(*c)]) for c in pos)
        assert value.negative_sum == sum(int(counts[cell_code(*c)]) for c in neg)

        exact = exact_test(table, spec)
        p_ref, direction = exact_test_by_full_convolution(table.counts, pos, neg)
        assert exact.direction == direction
        assert abs(exact.p_value - p_ref) <= 1e-12 * p_ref + 1e-300

        trials = _CHUNK_TRIALS + 7 if i == 0 else 100
        seed = int(rng.integers(2**32))
        boot = bootstrap_test(table, spec, trials, seed)
        values = [evaluate(DyadTable(census), spec).value
                  for j, first in enumerate(range(0, trials, _CHUNK_TRIALS))
                  for census in _sample_group_outcomes(
                      fit(table), min(_CHUNK_TRIALS, trials - first),
                      np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,))))]
        hits = {"positive": sum(v >= value.value for v in values),
                "negative": sum(v <= value.value for v in values), "none": trials}
        assert boot.direction == exact.direction
        assert boot.p_value == hits[boot.direction] / trials


def test_exact_integrity_failure_on_trimmed_path(monkeypatch):
    full_pmf = _binom_pmf
    monkeypatch.setattr("dyadeval.inference._binom_pmf",
                        lambda *args: 0.5 * full_pmf(*args))
    with pytest.raises(NumericalIntegrityError):
        exact_test(simulate_dyad_table(), MeasureId.M1)


def test_exact_test_with_explicit_model():
    base = simulate_dyad_table()
    model = fit(base)
    drawn = sample(model, 5)
    explicit = exact_test(drawn, MeasureId.M2, model=model)
    refit = exact_test(drawn, MeasureId.M2)
    assert explicit.observed == refit.observed
    # the explicit model's null mean is locked to the generating table
    assert explicit.null_mean == pytest.approx(
        exact_test(base, MeasureId.M2).null_mean, abs=1e-12)


def test_exact_test_tie_with_explicit_model():
    # an explicit model whose M2 mean equals the observed value: the
    # observed == mean tie gives no direction and p = 1
    table = table_from({(0, 0, 0, 0, 0, 0): 6})
    model = fit(table)
    res = exact_test(table, MeasureId.M2, model=model)
    assert res.observed == res.null_mean == -6
    assert res.direction == "none"
    assert res.p_value == 1.0


def test_flag_rate_under_the_fitted_null_per_measure():
    # 2,000 censuses drawn from the model fitted to a paper-scale table
    # (2,365 dyads), each refitted as the CLI does.  The one-sided tail
    # takes its direction from the data, so its flag fires between alpha
    # and 2 alpha of the time; the doubled tail fires at most alpha of the
    # time.  The slack is 4 binomial SE of 2,000 draws, fixed in advance.
    alpha, replicates = 0.05, 2_000
    model = fit(simulate_dyad_table(SimParams(seed=3)))
    assert model.total == 2_365
    censuses = [sample(model, seed) for seed in np.random.SeedSequence(2024).spawn(replicates)]
    rates = [np.mean([[res.significant for res in results] for results in run_items(
        [(census, InferenceConfig(method="exact", alpha=alpha, two_sided=two_sided), None)
         for census in censuses])], axis=0) for two_sided in (False, True)]
    assert rates[0].min() >= alpha
    assert rates[0].max() <= 2 * alpha + 4 * math.sqrt(2 * alpha * (1 - 2 * alpha) / replicates)
    assert rates[1].max() <= alpha + 4 * math.sqrt(alpha * (1 - alpha) / replicates)


# ---------------------------------------------------- tilted tails

def near_null_table(rng, dyads, noise):
    """A census drawn around a null model: participation-and-pre-state group
    shares times one transition row per pre-state (p, q), each cell's share
    then scaled by exp(noise * N(0, 1)), so that measures deviate from their
    null means by anything from a fraction of a sd to tens of sd."""
    groups = rng.dirichlet(np.full(16, 20.0)).reshape(2, 2, 2, 2, 1)
    rows = rng.dirichlet(np.full(4, 20.0), size=4).reshape(1, 1, 2, 2, 4)
    share = (groups * rows).ravel() * np.exp(noise * rng.standard_normal(64))
    return DyadTable(rng.multinomial(dyads, share / share.sum()).astype(np.int64))


def measure_sides(table):
    """(observed, sign of the deviation, positive blocks, negative blocks)
    of each of the eight measures."""
    plan = inference._plan(table, InferenceConfig(method="exact"), None)
    sides = side_groups(plan.blocks, 2 * len(plan.observed))
    return [(v, deviation, pos, neg) for v, (_, deviation), pos, neg
            in zip(plan.observed.tolist(), plan.means, sides[::2], sides[1::2])]


def engine_tail(pos, neg, v, deviation):
    """The exact engine's tail of one measure given by its sides' blocks."""
    [tail] = _exact_tails(np.array([v]), np.array([deviation]), measure_blocks(pos, neg))
    return tail


def measure_blocks(pos, neg, measure=0):
    """One measure's (measure, n, p, sign) block arrays, positive side first."""
    signed = [(g.count, g.success_prob, sign) for sign, side in ((1, pos), (-1, neg)) for g in side]
    return (np.full(len(signed), measure), np.array([n for n, _, _ in signed], np.int64),
            np.array([p for _, p, _ in signed], float), np.array([s for *_, s in signed], np.int64))


def test_tilted_tail_matches_direct_on_random_tables():
    # 150 censuses of 300 to 60k dyads (log-uniform); tails below ~1e-290
    # are at the direct engine's 1e-300 floor, hence the absolute term
    rng = np.random.default_rng(1313)
    compared = 0
    for _ in range(150):
        dyads = int(np.exp(rng.uniform(np.log(300), np.log(60_000))))
        for v, deviation, pos, neg in measure_sides(near_null_table(rng, dyads,
                                                                    rng.uniform(0.0, 0.05))):
            want = direct_tail(pos, neg, v, deviation)
            assert abs(engine_tail(pos, neg, v, deviation) - want) <= 1e-9 * want + 1e-290
            compared += 1e-290 < want < 1.0
    assert compared > 600


def forced_deviations(scale):
    """Sides as large as those of a census of 160k x ``scale`` dyads (16M
    at scale 100), one small block so that the direct engine convolves
    once, and the values 3, 12 and 30 sd above and below the mean."""
    pos = [TrialGroup(80_000 * scale, 0.3), TrialGroup(20_000, 0.62)]
    neg = [TrialGroup(80_000 * scale, 0.35)]
    blocks = [(g, 1) for g in pos] + [(g, -1) for g in neg]
    mean = sum(sign * g.count * g.success_prob for g, sign in blocks)
    sd = math.sqrt(sum(g.count * g.success_prob * (1 - g.success_prob) for g, _ in blocks))
    return pos, neg, [(round(mean + sign * k * sd), sign) for k in (3, 12, 30) for sign in (1, -1)]


@pytest.mark.parametrize("scale", [1, 10, 100])
def test_tilted_tail_at_forced_deviations(scale):
    pos, neg, values = forced_deviations(scale)
    for v, deviation in values:
        want = direct_tail(pos, neg, v, deviation)
        assert 1e-250 < want < 0.01
        assert abs(engine_tail(pos, neg, v, deviation) - want) <= 1e-9 * want, (v, deviation)


@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_tilted_tail_does_not_depend_on_theta(monkeypatch, factor):
    # the tail is exp(log M(theta) - theta v) times a tilted sum for any
    # theta; the solved one only centres the tilted PMF on v
    pos, neg, values = forced_deviations(10)
    cases = [(pos, neg, v, deviation) for v, deviation in values]
    cases += [(pos, neg, v, deviation) for v, deviation, pos, neg
              in measure_sides(near_null_table(np.random.default_rng(77), 200_000, 0.01))
              if deviation]
    expected = [engine_tail(*case) for case in cases]
    thetas = inference._thetas
    monkeypatch.setattr(inference, "_thetas", lambda *args: factor * thetas(*args))
    for case, want in zip(cases, expected):
        assert abs(engine_tail(*case) - want) <= 1e-11 * want


def test_both_engines_match_exact_rational_tails():
    # small sides whose tails run from ~0.5 down past 1e-250, against the
    # tail in exact rational arithmetic; probabilities in 1/1024ths keep
    # its integers short
    rng = np.random.default_rng(2121)
    smallest, compared = 1.0, 0
    for _ in range(4):
        pos = [TrialGroup(int(rng.integers(60, 160)), int(rng.integers(20, 300)) / 1024)
               for _ in range(2)]
        neg = [TrialGroup(int(rng.integers(60, 160)), int(rng.integers(20, 1004)) / 1024)]
        least, pmf, scale = difference_pmf_by_fractions(pos, neg)
        mean = sum(g.count * g.success_prob for g in pos) - neg[0].count * neg[0].success_prob
        top = least + len(pmf) - 1
        values = ([(int(v), 1) for v in np.linspace(mean + 1, top - 1, 12).round()]
                  + [(int(v), -1) for v in np.linspace(least + 1, mean - 1, 6).round()])
        for v, deviation in values:
            at = v - least
            exact = Fraction(sum(pmf[at:] if deviation > 0 else pmf[:at + 1]), scale)
            if exact < Fraction(1, 10 ** 250):
                continue
            for tail in (direct_tail(pos, neg, v, deviation), engine_tail(pos, neg, v, deviation)):
                assert abs(Fraction(tail) - exact) <= Fraction(1, 10 ** 10) * exact, (pos, neg, v)
            smallest, compared = min(smallest, float(exact)), compared + 1
    assert smallest < 1e-200 and compared > 40


def test_tilted_mass_drift_is_integrity_error(monkeypatch):
    pos, neg, values = forced_deviations(1)
    v, deviation = values[0]
    full_pmf = _binom_pmf
    monkeypatch.setattr(inference, "_binom_pmf", lambda *args: (1 + 3e-11) * full_pmf(*args))
    engine_tail(pos, neg, v, deviation)  # three blocks drift the mass by ~1e-10
    monkeypatch.setattr(inference, "_binom_pmf", lambda *args: (1 + 1e-9) * full_pmf(*args))
    with pytest.raises(NumericalIntegrityError, match="tilted difference pmf sums to"):
        engine_tail(pos, neg, v, deviation)


def test_tilted_integrity_failure_inline_and_in_forked_worker(monkeypatch):
    tables = [DyadTable(np.random.default_rng(seed).multinomial(200_000, np.full(64, 1 / 64)))
              for seed in (1, 2)]
    full_pmf = _binom_pmf
    monkeypatch.setattr(inference, "_binom_pmf", lambda *args: 0.5 * full_pmf(*args))
    with pytest.raises(NumericalIntegrityError, match="tilted"):
        exact_test(tables[0], MeasureId.M1)
    monkeypatch.setattr(io, "_worker_count", lambda: 2)  # forked workers inherit the patch
    with pytest.raises(NumericalIntegrityError, match="tilted"):
        run_items([(t, InferenceConfig(method="exact"), None) for t in tables], 2, io._run_tasks)


def test_tilted_tail_edges_give_the_direct_answer():
    # a value on or past the edge of the difference's support (theta
    # infinite), no deviation, point-mass blocks and a tail below 1e-300,
    # with every numpy warning an error
    pos = [TrialGroup(300, 0.4), TrialGroup(50, 1.0), TrialGroup(70, 0.0)]
    neg = [TrialGroup(250, 0.5), TrialGroup(40, 1.0), TrialGroup(0, 0.3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v, deviation in [(310, 1), (311, 1), (-240, -1), (-241, -1), (35, 0), (-300, 0)]:
            assert engine_tail(pos, neg, v, deviation) == direct_tail(pos, neg, v, deviation)
        for v, deviation in [(309, 1), (80, 1), (-10, -1), (-239, -1)]:
            want = direct_tail(pos, neg, v, deviation)
            assert abs(engine_tail(pos, neg, v, deviation) - want) <= 1e-12 * want
        assert engine_tail([TrialGroup(5, 1.0)], [TrialGroup(3, 0.0)], 5, 1) == 1.0
        far = [TrialGroup(2000, 0.3)], [TrialGroup(10, 0.5)], 1990, 1
        assert engine_tail(*far) == direct_tail(*far) == 0.0


def random_sides(rng):
    """Two sides of one to four blocks of 0 to 79 trials, their success
    probabilities uniform, near 1, 0 or 1."""
    return ([TrialGroup(int(rng.integers(0, 80)),
                        float(rng.choice([rng.uniform(), rng.uniform(0.9, 1.0), 0.0, 1.0],
                                         p=[0.5, 0.3, 0.1, 0.1])))
             for _ in range(int(rng.integers(1, 5)))] for _ in range(2))


def support_edges(pos, neg):
    """The least and the greatest value of X - Y of positive probability."""
    reach = lambda side, other: (sum(g.count for g in side if g.success_prob > 0.0)
                                 - sum(g.count for g in other if g.success_prob == 1.0))
    return -reach(neg, pos), reach(pos, neg)


def test_edge_tails_equal_the_direct_tails_bit_for_bit():
    # on the edge of the support in the tail's direction, random sides with
    # point-mass and empty blocks: the closed form is the direct engine's
    # product of extremes, bit for bit down to the 1e-300 floor
    rng = np.random.default_rng(4242)
    nonzero = 0
    for _ in range(300):
        pos, neg = random_sides(rng)
        least, greatest = support_edges(pos, neg)
        for v, deviation in ((greatest, 1), (least, -1)):
            want = direct_tail(pos, neg, v, deviation)
            assert engine_tail(pos, neg, v, deviation) == (want if want >= 1e-300 else 0.0)
            nonzero += want >= 1e-300
    assert nonzero > 300


def test_one_batch_equals_one_call_per_measure_bit_for_bit():
    # 400 random measures, each in direction -1, 0 or +1 at a value inside
    # its support, on its edge or past it, and the forced deviations 3 to 30
    # sd out at three scales, shuffled: theta takes two Newton steps for a
    # forced deviation and up to eight, some bisecting, for a random measure;
    # one _exact_tails call over all of them gives each measure's own tail,
    # bit for bit
    rng = np.random.default_rng(4343)
    cases = []
    for _ in range(400):
        pos, neg = random_sides(rng)
        deviation = int(rng.integers(-1, 2))
        least, greatest = support_edges(pos, neg)
        edge = greatest if deviation >= 0 else least
        step = int(rng.choice([-int(rng.integers(1, 60)), 0, int(rng.integers(1, 4))]))
        cases.append((pos, neg, edge + (deviation or 1) * step, deviation))
    for scale in (1, 10, 100):
        pos, neg, values = forced_deviations(scale)
        cases += [(pos, neg, v, deviation) for v, deviation in values]
    rng.shuffle(cases)
    alone = [engine_tail(*case) for case in cases]
    blocks = [measure_blocks(pos, neg, i) for i, (pos, neg, _, _) in enumerate(cases)]
    together = _exact_tails(np.array([v for *_, v, _ in cases]),
                            np.array([deviation for *_, deviation in cases]),
                            tuple(np.concatenate(column) for column in zip(*blocks)))
    assert together == alone
    inside = [0.0 < tail < 1.0 for tail in alone]
    assert sum(inside) > 100 and alone.count(0.0) > 50 and alone.count(1.0) > 100


# -------------------------------------------------- bootstrap_test

def test_bootstrap_degenerate_table():
    cells = {(x, y, p, q, p, q): 3 for x in (0, 1) for y in (0, 1)
             for p in (0, 1) for q in (0, 1)}
    res = bootstrap_test(table_from(cells), MeasureId.M1, trials=50, seed=0)
    assert res.p_value == 1.0
    assert res.direction == "none"
    assert res.trials == 50


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0])
def test_single_tests_validate_alpha_as_run_all_does(alpha):
    # bootstrap_test and exact_test take their settings through InferenceConfig
    table = simulate_dyad_table()
    for call in (lambda: bootstrap_test(table, MeasureId.M1, 10, 0, alpha=alpha),
                 lambda: exact_test(table, MeasureId.M1, alpha=alpha),
                 lambda: run_all(table, InferenceConfig(alpha=alpha))):
        with pytest.raises(InputError, match=r"alpha must lie in \(0, 1\)"):
            call()


def test_bootstrap_validation():
    table = simulate_dyad_table()
    with pytest.raises(InputError):
        bootstrap_test(table, MeasureId.M1, trials=0, seed=0)
    with pytest.raises(InputError):
        bootstrap_test(DyadTable(np.zeros(64, dtype=np.int64)), MeasureId.M1,
                       trials=10, seed=0)


def test_bootstrap_deterministic():
    table = simulate_dyad_table()
    a = bootstrap_test(table, MeasureId.M4, trials=500, seed=42)
    b = bootstrap_test(table, MeasureId.M4, trials=500, seed=42)
    assert a == b


def test_bootstrap_addone_correction():
    table = simulate_dyad_table(SimParams(seed=3))
    res = bootstrap_test(table, MeasureId.M1, trials=1000, seed=1)
    # strongly significant: raw tail 0, add-one = 1/(B+1)
    assert res.p_value == 0.0
    assert res.p_value_addone == pytest.approx(1 / 1001)


def test_bootstrap_two_sided_doubles():
    table = simulate_dyad_table()
    one = bootstrap_test(table, MeasureId.M3, trials=2000, seed=9)
    two = bootstrap_test(table, MeasureId.M3, trials=2000, seed=9, two_sided=True)
    assert two.p_value == pytest.approx(min(1.0, 2 * one.p_value))


def test_bootstrap_within_mc_error_of_enumeration():
    # two nonzero measure groups, 11 dyads, row mass split across quadrants
    # so the observed value sits off the null mean
    cells = {(1, 0, 1, 0, 0, 0): 3, (1, 0, 1, 0, 1, 1): 3, (0, 0, 1, 0, 1, 1): 5}
    table = table_from(cells)
    trials = 20_000
    res = bootstrap_test(table, MeasureId.M1, trials=trials, seed=5)
    dist = null_distribution_by_enumeration(table.counts, "M1")
    p_exact, direction = tail_probability_from_distribution(
        dist, evaluate(table, MeasureId.M1).value)
    se = np.sqrt(p_exact * (1 - p_exact) / trials)
    assert res.direction == direction
    assert abs(res.p_value - p_exact) <= 3 * se


def test_bootstrap_direction_follows_model_mean_not_sampled_mean():
    # criterion 1's dataset seed 1010: the sampled M3 mean (8.066) and the
    # exact one (7.990) straddle the observed 8; both engines must read the
    # direction off the model's mean
    table = simulate_dyad_table(SimParams(seed=1010))
    results = run_all(table, InferenceConfig(method="both", trials=100_000, seed=5010,
                                             measures=(MeasureId.M3,)))
    boot, exact = results
    assert boot.observed == exact.observed == 8
    assert exact.null_mean == pytest.approx(7.9898, abs=1e-4)
    assert boot.null_mean == exact.null_mean
    assert boot.direction == exact.direction == "positive"
    weights = spec_for(MeasureId.M3).weights
    outcomes = _sample_group_outcomes(fit(table), 100_000, np.random.default_rng(5010))
    sampled = outcomes @ weights
    assert sampled.mean() == pytest.approx(8.066, abs=1e-3)
    # the bootstrap's censuses come in chunks, chunk j from stream j of the seed
    at_least = 0
    for j, first in enumerate(range(0, 100_000, _CHUNK_TRIALS)):
        n = min(_CHUNK_TRIALS, 100_000 - first)
        stream = np.random.default_rng(np.random.SeedSequence(5010, spawn_key=(j,)))
        chunk = _sample_group_outcomes(fit(table), n, stream) @ weights
        at_least += int((chunk >= 8).sum())
    assert boot.p_value == at_least / 100_000


def test_bootstrap_tie_rule_from_fitted_model():
    # a fitted model whose M2 mean equals the observed 0: the samples
    # scatter around it, but the bootstrap shares the exact engine's tie rule
    table = table_from({(1, 0, 0, 0, 0, 0): 2, (1, 0, 0, 0, 1, 1): 2,
                        (0, 0, 0, 0, 0, 0): 2, (0, 0, 0, 0, 1, 1): 2})
    model = fit(table)
    assert model.p0[0, 0].ravel().tolist() == [0.5, 0.0, 0.0, 0.5]
    boot = bootstrap_test(table, MeasureId.M2, trials=50, seed=0, model=model)
    exact = exact_test(table, MeasureId.M2, model=model)
    assert boot.observed == exact.observed == 0
    assert (boot.null_mean, boot.direction, boot.p_value) == (0.0, "none", 1.0)
    assert (exact.null_mean, exact.direction, exact.p_value) == (0.0, "none", 1.0)


def test_bootstrap_vectorized_path_equals_per_census_evaluation():
    # evaluate each sampled census with the measures module; must equal the
    # values of the one matrix product with the stacked weight rows
    table = simulate_dyad_table()
    model = fit(table)
    trials = 40
    outcomes = _sample_group_outcomes(model, trials, np.random.default_rng(8))
    measures = (MeasureId.M1, MeasureId.M5, MeasureId.M8)
    values = outcomes @ np.stack([spec_for(m).weights for m in measures]).T
    # every census keeps the observed group masses
    assert np.array_equal(outcomes.reshape(trials, 2, 2, 2, 2, 4).sum(axis=-1),
                          np.broadcast_to(model.masses, (trials, 2, 2, 2, 2)))
    for i, measure in enumerate(measures):
        for b in (0, 7, 39):
            census = DyadTable(outcomes[b])
            assert evaluate(census, measure).value == values[b, i]
            assert measure_values_by_formula(census.counts)[measure.name] == values[b, i]


# ------------------------------------------------------- run_all

def test_run_all_ordering_and_methods():
    table = simulate_dyad_table()
    results = run_all(table, InferenceConfig(method="both", trials=300, seed=2))
    assert len(results) == 16
    assert [r.measure for r in results[::2]] == list(MeasureId)
    assert all(r.method == "bootstrap" for r in results[::2])
    assert all(r.method == "exact" for r in results[1::2])


def test_run_all_bootstrap_matches_single_tests():
    # shared sampling: run_all results equal standalone bootstrap_test
    table = simulate_dyad_table()
    results = run_all(table, InferenceConfig(method="bootstrap", trials=400, seed=77))
    for res in results:
        alone = bootstrap_test(table, res.measure, trials=400, seed=77)
        assert res == alone


def test_run_all_equals_per_measure_tests_on_random_tables():
    # around the chunk size: one short chunk, one full chunk, a full chunk
    # and a one-trial chunk, two full chunks and a one-trial chunk
    rng = np.random.default_rng(909)
    for trials in (_CHUNK_TRIALS - 1, _CHUNK_TRIALS, _CHUNK_TRIALS + 1, 2 * _CHUNK_TRIALS + 1):
        table = DyadTable(rng.integers(0, int(rng.integers(2, 9)), size=64))
        int_seed = int(rng.integers(2**32))
        for seed in (int_seed, np.random.SeedSequence(int_seed).spawn(3)[2]):
            results = run_all(table, InferenceConfig(method="both", trials=trials, seed=seed))
            expected = [r for m in MeasureId
                        for r in (bootstrap_test(table, m, trials, seed),
                                  exact_test(table, m))]
            assert results == expected
        # a Generator is consumed chunk by chunk: equal generators, equal results
        results = run_all(table, InferenceConfig(
            method="bootstrap", trials=trials, seed=np.random.default_rng(int_seed)))
        assert results == [bootstrap_test(table, m, trials, np.random.default_rng(int_seed))
                           for m in MeasureId]


def test_bootstrap_memory_does_not_grow_with_trials():
    table = DyadTable(np.random.default_rng(919).integers(0, 6, size=64))

    def peak(trials):
        tracemalloc.start()
        try:
            run_all(table, InferenceConfig(method="bootstrap", trials=trials, seed=4))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10_000), peak(1_000_000)
    # one chunk of 10,000 trials against chunks of _CHUNK_TRIALS; holding
    # every trial would take ~100 times the memory
    assert large < 2 * small


def test_run_all_empty_measure_sides_on_sparse_table():
    # all mass in quadrant (x=0, y=1): M5-M8 touch only quadrants
    # (1,1), (1,0), (0,0), so both their sides are empty there
    cells = {(0, 1, 1, 0, 0, 0): 3, (0, 1, 0, 1, 1, 1): 2}
    table = table_from(cells)
    by_measure = {r.measure: r for r in
                  run_all(table, InferenceConfig(method="exact"))}
    for measure in (MeasureId.M5, MeasureId.M6, MeasureId.M7, MeasureId.M8):
        res = by_measure[measure]
        assert res.observed == 0
        assert res.p_value == 1.0
        assert res.direction == "none"


def test_run_all_degenerate_when_nothing_changes():
    frozen = table_from({(x, y, p, q, p, q): 4 for x in (0, 1) for y in (0, 1)
                         for p in (0, 1) for q in (0, 1)})
    for res in run_all(frozen, InferenceConfig(method="both", trials=100, seed=0)):
        assert res.p_value == 1.0


def test_method_disagreement_reporting():
    table = simulate_dyad_table()
    results = run_all(table, InferenceConfig(method="both", trials=5000, seed=3))
    gaps = method_disagreement(results)
    assert set(gaps) == set(MeasureId)
    assert all(0 <= v <= 1 for v in gaps.values())


def test_inference_config_validation():
    with pytest.raises(InputError):
        InferenceConfig(method="banana")
    with pytest.raises(InputError):
        InferenceConfig(method="bootstrap", trials=0)
    with pytest.raises(InputError):
        InferenceConfig(alpha=1.5)
