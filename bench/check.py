"""Correctness check of a dyadeval JSON report, independent of dyadeval.

Everything is recomputed from the census the generator tallied itself:

* the eight measures are re-declared here from the paper's cell-sets;
* ``observed`` is a sum of tallied cells;
* the null mean and the test direction come from rational arithmetic on
  the pooled transition tallies;
* the exact p-value comes from an FFT convolution of binomial PMFs, a
  different algorithm from the program's direct convolution.

Exact p-values must match the independent value, and, for the default seed,
the value recorded in ``reference/<workload>.json``, both within 1e-9
absolute.  Bootstrap p-values must lie within 5 SE(p_exact, B) + 1/B of the
exact one wherever the two engines agree on the direction; disagreements
are a known defect of the program (the bootstrap takes its direction from
the sampled mean) and are counted, not failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

EXACT_TOL = 1e-9
BOOT_SE = 5.0

# Fixed coordinates of each measure's positive and negative cell-set;
# unlisted coordinates range over {0, 1}.
MEASURES = {
    "M1": ({"x": 1, "p": 1, "r": 0}, {"x": 0, "p": 1, "r": 0}),
    "M2": ({"x": 1, "p": 0, "r": 0}, {"x": 0, "p": 0, "r": 0}),
    "M3": ({"x": 1, "q": 1, "s": 0}, {"x": 0, "q": 1, "s": 0}),
    "M4": ({"x": 1, "q": 0, "s": 0}, {"x": 0, "q": 0, "s": 0}),
    "M5": ({"x": 1, "y": 1, "p": 1, "r": 0}, {"x": 1, "y": 0, "p": 1, "r": 0}),
    "M6": ({"x": 1, "y": 1, "p": 0, "r": 0}, {"x": 1, "y": 0, "p": 0, "r": 0}),
    "M7": ({"x": 1, "y": 0, "q": 1, "s": 0}, {"x": 0, "y": 0, "q": 1, "s": 0}),
    "M8": ({"x": 1, "y": 0, "q": 0, "s": 0}, {"x": 0, "y": 0, "q": 0, "s": 0}),
}
_BITS = "xypqrs"


def _mask(fixed: dict[str, int]) -> np.ndarray:
    """(2,2,2,2,2,2) boolean mask over (x, y, p, q, r, s) of the matching cells."""
    grids = np.indices((2,) * 6)
    mask = np.ones((2,) * 6, dtype=bool)
    for name, bit in fixed.items():
        mask &= grids[_BITS.index(name)] == bit
    return mask


_MASKS = {m: (_mask(pos), _mask(neg)) for m, (pos, neg) in MEASURES.items()}


def _binom_pmf(n: int, p: Fraction) -> np.ndarray:
    if p == 0 or p == 1:
        out = np.zeros(n + 1)
        out[0 if p == 0 else n] = 1.0
        return out
    k = np.arange(1, n + 1)
    log_choose = np.concatenate(([0.0], np.cumsum(np.log(n - k + 1) - np.log(k))))
    k = np.arange(n + 1)
    return np.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-float(p)))


@dataclass
class Exact:
    """Independent exact result for one measure."""

    observed: int
    mean: Fraction
    direction: str
    p_value: float


def _side(c: np.ndarray, mask: np.ndarray, row_counts: np.ndarray, row_totals: np.ndarray):
    """Rational mean and binomial blocks (n, prob) of one side of a measure."""
    mean = Fraction(0)
    blocks: dict[Fraction, int] = {}
    masses = c.sum(axis=(4, 5))
    for x, y, p, q in np.ndindex(2, 2, 2, 2):
        outcomes = mask[x, y, p, q]
        mass = int(masses[x, y, p, q])
        if not outcomes.any() or mass == 0:
            continue
        prob = Fraction(int(row_counts[p, q][outcomes].sum()), int(row_totals[p, q]))
        mean += mass * prob
        blocks[prob] = blocks.get(prob, 0) + mass
    return mean, blocks


def exact_reference(counts: np.ndarray) -> dict[str, Exact]:
    """Observed value, null mean, direction and exact one-sided p per measure."""
    c = counts.reshape((2,) * 6)
    row_counts = c.sum(axis=(0, 1))
    row_totals = row_counts.sum(axis=(2, 3))
    out = {}
    for m, (pos_mask, neg_mask) in _MASKS.items():
        observed = int(c[pos_mask].sum() - c[neg_mask].sum())
        pos_mean, pos_blocks = _side(c, pos_mask, row_counts, row_totals)
        neg_mean, neg_blocks = _side(c, neg_mask, row_counts, row_totals)
        mean = pos_mean - neg_mean
        if observed == mean:
            out[m] = Exact(observed, mean, "none", 1.0)
            continue
        pmfs = [_binom_pmf(n, p) for p, n in pos_blocks.items()]
        pmfs += [_binom_pmf(n, p)[::-1] for p, n in neg_blocks.items()]
        size = sum(len(f) - 1 for f in pmfs) + 1
        fft_size = 1 << (size - 1).bit_length()
        spectrum = np.ones(fft_size // 2 + 1, dtype=complex)
        for f in pmfs:
            spectrum *= np.fft.rfft(f, fft_size)
        pmf = np.clip(np.fft.irfft(spectrum, fft_size)[:size], 0.0, None)
        at = observed + sum(neg_blocks.values())  # index of `observed` in pmf
        if observed > mean:
            out[m] = Exact(observed, mean, "positive", float(pmf[at:].sum()))
        else:
            out[m] = Exact(observed, mean, "negative", float(pmf[:at + 1].sum()))
    return out


@dataclass
class Verdict:
    """Outcome of checking one report."""

    attempted: int = 0
    failed: int = 0
    direction_mismatch: int = 0
    boot_gap_se_max: float = 0.0
    dyads_used: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, item: str, why: str) -> None:
        self.problems.append(f"{item}: {why}")


def check_report(report: dict, truth, expected: dict[str, dict[str, Exact]],
                 method: str, pinned: dict[str, dict[str, float]] | None) -> Verdict:
    """Check a parsed JSON report item by item against the generator's tally."""
    v = Verdict()
    got = {item["item_id"]: item for item in report.get("items", [])}
    methods = {"both": ["bootstrap", "exact"]}.get(method, [method])
    for name, counts in truth.counts.items():
        v.attempted += 1
        before = len(v.problems)
        item = got.get(name)
        if item is None:
            v.fail(name, "missing from report")
        elif item["error"] is not None:
            v.fail(name, f"error {item['error']!r}")
        else:
            _check_item(v, name, item, counts, truth, expected[name], methods,
                        pinned.get(name) if pinned else None)
            v.dyads_used += item["dyads_used"]
        v.failed += len(v.problems) > before
    for name in got.keys() - truth.counts.keys():
        v.attempted += 1
        v.failed += 1
        v.fail(name, "unexpected item in report")
    return v


def _check_item(v: Verdict, name: str, item: dict, counts, truth, expected: dict[str, Exact],
                methods: list[str], pinned: dict[str, float] | None) -> None:
    if item["dyads_used"] != int(counts.sum()):
        v.fail(name, f"dyads_used {item['dyads_used']} != {int(counts.sum())}")
    if item["dyads_dropped"] != truth.dropped[name]:
        v.fail(name, f"dyads_dropped {item['dyads_dropped']} != {truth.dropped[name]}")
    want = [(m, meth) for m in MEASURES for meth in methods]
    have = [(r["measure"], r["method"]) for r in item["results"]]
    if have != want:
        v.fail(name, f"results {have} != {want}")
        return
    for res in item["results"]:
        m, ref = res["measure"], expected[res["measure"]]
        where = f"{m} {res['method']}"
        if res["observed"] != ref.observed:
            v.fail(name, f"{where} observed {res['observed']} != {ref.observed}")
        if res["significant"] != (res["p_value"] < res["alpha"]):
            v.fail(name, f"{where} significant flag disagrees with p and alpha")
        if res["method"] == "exact":
            mean = float(ref.mean)
            if abs(res["null_mean"] - mean) > EXACT_TOL * max(1.0, abs(mean)):
                v.fail(name, f"{where} null_mean {res['null_mean']!r} != {mean!r}")
            if res["direction"] != ref.direction:
                v.fail(name, f"{where} direction {res['direction']} != {ref.direction}")
            if abs(res["p_value"] - ref.p_value) > EXACT_TOL:
                v.fail(name, f"{where} p {res['p_value']!r} != independent {ref.p_value!r}")
            if pinned is not None and abs(res["p_value"] - pinned[m]) > EXACT_TOL:
                v.fail(name, f"{where} p {res['p_value']!r} != recorded {pinned[m]!r}")
        else:
            trials = truth.trials
            if res["trials"] != trials:
                v.fail(name, f"{where} trials {res['trials']} != {trials}")
            if res["direction"] != ref.direction:
                v.direction_mismatch += 1
                continue
            se = math.sqrt(ref.p_value * (1.0 - ref.p_value) / trials)
            gap = abs(res["p_value"] - ref.p_value)
            v.boot_gap_se_max = max(v.boot_gap_se_max, gap / max(se, 1.0 / trials))
            if gap > BOOT_SE * se + 1.0 / trials:
                v.fail(name, f"{where} p {res['p_value']!r} is {gap:.3g} from exact "
                             f"{ref.p_value!r} (SE {se:.3g})")


def exact_p_values(report: dict) -> dict[str, dict[str, float]]:
    """item -> measure -> exact p-value, the format of reference/<workload>.json."""
    return {item["item_id"]: {r["measure"]: r["p_value"] for r in item["results"]
                              if r["method"] == "exact"}
            for item in report["items"]}
