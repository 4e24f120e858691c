"""Independent brute-force reference implementations used only by tests.

Everything here is written directly from first principles (loops over all
64 cells, literal subset enumeration, exact rational arithmetic over all
joint multinomial outcomes) and deliberately shares no code with the
package under test beyond the documented bit order.  The binomial window
reference takes the package's binomial PMF, since what it checks is the
window around it, and the direct tail takes the package's ``pb_pmf`` (which
criterion 2 checks against subset enumeration), since what it checks is the
tilted tail built from the same blocks.  The dyad CSV, node+edge join and simulator references
build the package's ``DyadRecord`` (and ``JoinStats``) and raise its
``InputError``, so that records, counters and error messages compare
directly; the side-block reference builds the package's ``TrialGroup``
from the fitted model's ``p0``, and the null-mean reference reads the
fitted model's tallies one measure at a time.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.stats import binom

from dyadeval import DyadRecord, InputError
from dyadeval.inference import TrialGroup, _binom_pmf, pb_pmf
from dyadeval.io import JoinStats


def cell_code(x, y, p, q, r, s) -> int:
    # Same documented bit order as the package: x most significant.
    return x * 32 + y * 16 + p * 8 + q * 4 + r * 2 + s


def record_code(rec) -> int:
    return cell_code(rec.x, rec.y, rec.p, rec.q, rec.r, rec.s)


BITS = (0, 1)


def measure_values_by_formula(counts) -> dict[str, int]:
    """The eight printed difference-of-sums formulas, as literal loops."""

    def c(x, y, p, q, r, s):
        return int(counts[cell_code(x, y, p, q, r, s)])

    m = {}
    m["M1"] = (sum(c(1, y, 1, q, 0, s) for y in BITS for q in BITS for s in BITS)
               - sum(c(0, y, 1, q, 0, s) for y in BITS for q in BITS for s in BITS))
    m["M2"] = (sum(c(1, y, 0, q, 0, s) for y in BITS for q in BITS for s in BITS)
               - sum(c(0, y, 0, q, 0, s) for y in BITS for q in BITS for s in BITS))
    m["M3"] = (sum(c(1, y, p, 1, r, 0) for y in BITS for p in BITS for r in BITS)
               - sum(c(0, y, p, 1, r, 0) for y in BITS for p in BITS for r in BITS))
    m["M4"] = (sum(c(1, y, p, 0, r, 0) for y in BITS for p in BITS for r in BITS)
               - sum(c(0, y, p, 0, r, 0) for y in BITS for p in BITS for r in BITS))
    m["M5"] = (sum(c(1, 1, 1, q, 0, s) for q in BITS for s in BITS)
               - sum(c(1, 0, 1, q, 0, s) for q in BITS for s in BITS))
    m["M6"] = (sum(c(1, 1, 0, q, 0, s) for q in BITS for s in BITS)
               - sum(c(1, 0, 0, q, 0, s) for q in BITS for s in BITS))
    m["M7"] = (sum(c(1, 0, p, 1, r, 0) for p in BITS for r in BITS)
               - sum(c(0, 0, p, 1, r, 0) for p in BITS for r in BITS))
    m["M8"] = (sum(c(1, 0, p, 0, r, 0) for p in BITS for r in BITS)
               - sum(c(0, 0, p, 0, r, 0) for p in BITS for r in BITS))
    return m


def measure_cells_by_formula(name: str) -> tuple[set, set]:
    """Positive and negative cell coordinate sets of a printed formula."""
    pos, neg = set(), set()
    if name in ("M1", "M2"):
        p = 1 if name == "M1" else 0
        for y in BITS:
            for q in BITS:
                for s in BITS:
                    pos.add((1, y, p, q, 0, s))
                    neg.add((0, y, p, q, 0, s))
    elif name in ("M3", "M4"):
        q = 1 if name == "M3" else 0
        for y in BITS:
            for p in BITS:
                for r in BITS:
                    pos.add((1, y, p, q, r, 0))
                    neg.add((0, y, p, q, r, 0))
    elif name in ("M5", "M6"):
        p = 1 if name == "M5" else 0
        for q in BITS:
            for s in BITS:
                pos.add((1, 1, p, q, 0, s))
                neg.add((1, 0, p, q, 0, s))
    elif name in ("M7", "M8"):
        q = 1 if name == "M7" else 0
        for p in BITS:
            for r in BITS:
                pos.add((1, 0, p, q, r, 0))
                neg.add((0, 0, p, q, r, 0))
    else:
        raise ValueError(name)
    return pos, neg


def marginals_by_loops(counts):
    """Every marginal family via direct summation over the 64 cells."""
    n0 = {(p, q): 0 for p in BITS for q in BITS}
    n1 = {(r, s): 0 for r in BITS for s in BITS}
    n_pqrs = {(p, q, r, s): 0 for p in BITS for q in BITS for r in BITS for s in BITS}
    n0_group = {(x, y, p, q): 0 for x in BITS for y in BITS for p in BITS for q in BITS}
    n1_group = {(x, y, r, s): 0 for x in BITS for y in BITS for r in BITS for s in BITS}
    for x in BITS:
        for y in BITS:
            for p in BITS:
                for q in BITS:
                    for r in BITS:
                        for s in BITS:
                            value = int(counts[cell_code(x, y, p, q, r, s)])
                            n0[(p, q)] += value
                            n1[(r, s)] += value
                            n_pqrs[(p, q, r, s)] += value
                            n0_group[(x, y, p, q)] += value
                            n1_group[(x, y, r, s)] += value
    return n0, n1, n_pqrs, n0_group, n1_group


def pb_pmf_by_subsets(probs) -> list[float]:
    """Literal Poisson-Binomial PMF: sum over all success subsets.

    P(X = m) = sum over size-m subsets A of prod_{i in A} p_i
               * prod_{j not in A} (1 - p_j).
    Exponential in the trial count; callers keep N <= 15.
    """
    n = len(probs)
    pmf = [0.0] * (n + 1)
    for m in range(n + 1):
        total = 0.0
        for subset in itertools.combinations(range(n), m):
            inside = set(subset)
            term = 1.0
            for i in range(n):
                term *= probs[i] if i in inside else 1.0 - probs[i]
            total += term
        pmf[m] = total
    return pmf


def difference_pmf_by_double_loop(fx, x_min, fy, y_min):
    """PMF of X - Y via the full double loop over support pairs."""
    z_min = x_min - (y_min + len(fy) - 1)
    out = [0.0] * (len(fx) + len(fy) - 1)
    for i, px in enumerate(fx):
        for j, py in enumerate(fy):
            z = (x_min + i) - (y_min + j)
            out[z - z_min] += px * py
    return out, z_min


def difference_distribution(pos, neg) -> tuple[int, np.ndarray]:
    """(support_min, pmf) of X - Y for independent X, Y, each given by a
    ``support_min`` and a ``pmf`` array: the convolution of X's PMF with Y's
    reversed, which the exact engine's dot-product tails avoid."""
    pmf = np.convolve(pos.pmf, neg.pmf[::-1])
    return pos.support_min - (neg.support_min + len(neg.pmf) - 1), pmf


def difference_tail(pos, neg, v: int, deviation: int) -> float:
    """Inclusive tail of X - Y at v for independent X ~ pos, Y ~ neg (each
    with a ``support_min`` and a ``pmf``), in the direction of the deviation
    (1 for none): sum_y P(Y = y) P(X >= v + y), one dot product of Y's PMF
    with X's suffix sums, or its mirror with X's prefix sums."""
    if deviation == 0:
        return 1.0
    ys = neg.support_min + np.arange(len(neg.pmf))
    if deviation > 0:
        sums = np.append(np.cumsum(pos.pmf[::-1])[::-1], 0.0)  # P(X >= min + i)
        at = v + ys - pos.support_min
    else:
        sums = np.concatenate(([0.0], np.cumsum(pos.pmf)))  # P(X <= min + i - 1)
        at = v + ys - pos.support_min + 1
    return float(neg.pmf @ sums[np.clip(at, 0, len(pos.pmf))])


def direct_tail(pos_groups, neg_groups, v: int, deviation: int) -> float:
    """The tail of ``difference_tail`` for X and Y the sums of two lists of
    binomial groups, each side's PMF by the package's direct convolution
    (``pb_pmf``): the direct engine that the tilted tails replaced."""
    return difference_tail(pb_pmf(pos_groups), pb_pmf(neg_groups), v, deviation)


def binom_window_by_growth(n: int, prob: float) -> tuple[int, np.ndarray]:
    """(first value, PMF) of Binomial(n, prob) on the window where it is
    >= 1e-300, by the per-block growth loop the exact engine used before its
    windows were batched: start from mean +/- (40 sd + 40), clipped to
    [0, n]; while an edge entry is still at or above the floor, move that
    edge out by the current width and evaluate again; then cut sub-floor
    entries at either edge.  It takes the package's binomial PMF, so the
    windows it finds compare bit for bit with the batched evaluator's."""
    mean = n * prob
    half = 40.0 * (mean * (1.0 - prob)) ** 0.5 + 40.0
    lo = max(0, int(mean - half))
    hi = min(n, int(mean + half) + 1)
    while True:
        block = _binom_pmf(np.arange(lo, hi + 1), n, prob)
        grow_lo = lo > 0 and block[0] >= 1e-300
        grow_hi = hi < n and block[-1] >= 1e-300
        if not (grow_lo or grow_hi):
            break
        width = hi - lo + 1
        if grow_lo:
            lo = max(0, lo - width)
        if grow_hi:
            hi = min(n, hi + width)
    kept = np.flatnonzero(block >= 1e-300)
    return lo + int(kept[0]), block[kept[0]:kept[-1] + 1]


def side_blocks_by_columns(model, weights, sign) -> list[TrialGroup]:
    """The binomial blocks of the side of one weight row whose cells carry
    ``sign``, as the exact engine built them one side at a time: each
    (x, y, p, q) group with mass and cells on the side is keyed by its (p, q)
    row and its tuple of (r, s) outcome columns, masses with equal keys are
    added, and each block's probability is the row's entries summed over
    its columns in ascending order and capped at 1, the blocks in key
    order."""
    side = weights.reshape(2, 2, 2, 2, 4) == sign
    masses: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for x, y, p, q in np.argwhere(side.any(axis=-1) & (model.masses > 0)):
        key = (int(p), int(q), tuple(np.flatnonzero(side[x, y, p, q]).tolist()))
        masses[key] = masses.get(key, 0) + int(model.masses[x, y, p, q])
    return [TrialGroup(mass, min(float(sum(model.p0[p, q].ravel()[c] for c in cols)), 1.0))
            for (p, q, cols), mass in sorted(masses.items())]


def null_mean_by_measure(model, weights, observed: int) -> tuple[float, int]:
    """One weight row's null mean under the model and the sign of the
    observed deviation from it, as the engine took them one measure at a
    time: mass * signed transitions / row total summed over the groups with
    signed transitions, as one integer numerator over the lcm of their row
    totals."""
    signed = (weights.reshape(2, 2, 2, 2, 4) * model.row_counts.reshape(2, 2, 4)).sum(axis=-1)
    groups = np.nonzero(signed)
    totals = model.row_totals[groups[2:]].tolist()
    den = math.lcm(*totals)
    num = sum(mass * count * (den // total) for mass, count, total in
              zip(model.masses[groups].tolist(), signed[groups].tolist(), totals))
    return num / den, (observed * den > num) - (observed * den < num)


def distribution_mean(support_min: int, pmf) -> float:
    """Mean of a PMF over consecutive integers from ``support_min``."""
    return float(np.dot(support_min + np.arange(len(pmf)), pmf))


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _multinomial_pmf_fraction(ks, probs: list[Fraction]) -> Fraction:
    prob = Fraction(math.factorial(sum(ks)))
    for k in ks:
        prob /= math.factorial(k)
    for k, p in zip(ks, probs):
        if k:
            if p == 0:
                return Fraction(0)
            prob *= p ** k
    return prob


RS_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


def null_distribution_by_enumeration(counts, measure: str) -> dict[int, Fraction]:
    """Exact null distribution of a measure by enumerating every joint
    multinomial outcome, in rational arithmetic.

    The null model: pool participation quadrants to get row distributions
    P(r,s | p,q) = N_pqrs / n0_pq (exact fractions), then each
    (x, y, p, q) group redraws its post-states as an independent
    multinomial of its observed mass.  Only groups whose cells appear in
    the measure matter; the others marginalize out.
    """
    n0, _, n_pqrs, n0_group, _ = marginals_by_loops(counts)
    pos_cells, neg_cells = measure_cells_by_formula(measure)
    relevant = sorted({(x, y, p, q) for (x, y, p, q, r, s) in pos_cells | neg_cells
                       if n0_group[(x, y, p, q)] > 0})
    group_rows = []
    for (x, y, p, q) in relevant:
        row = [Fraction(n_pqrs[(p, q, r, s)], n0[(p, q)]) for (r, s) in RS_ORDER]
        group_rows.append(((x, y, p, q), n0_group[(x, y, p, q)], row))

    def side_contribution(group, ks, cells):
        x, y, p, q = group
        return sum(k for (r, s), k in zip(RS_ORDER, ks)
                   if (x, y, p, q, r, s) in cells)

    dist: dict[int, Fraction] = {}
    per_group_outcomes = []
    for group, mass, row in group_rows:
        outcomes = []
        for ks in _compositions(mass, 4):
            prob = _multinomial_pmf_fraction(ks, row)
            if prob == 0:
                continue
            delta = (side_contribution(group, ks, pos_cells)
                     - side_contribution(group, ks, neg_cells))
            outcomes.append((delta, prob))
        per_group_outcomes.append(outcomes)

    for combo in itertools.product(*per_group_outcomes):
        value = sum(delta for delta, _ in combo)
        prob = Fraction(1)
        for _, term in combo:
            prob *= term
        dist[value] = dist.get(value, Fraction(0)) + prob
    if not per_group_outcomes:
        dist[0] = Fraction(1)
    return dist


def tail_probability_from_distribution(dist: dict[int, Fraction], observed: int
                                       ) -> tuple[float, str]:
    """One-sided inclusive tail in the direction of deviation from the mean."""
    mean = sum(Fraction(v) * prob for v, prob in dist.items())
    if observed > mean:
        return float(sum(prob for v, prob in dist.items() if v >= observed)), "positive"
    if observed < mean:
        return float(sum(prob for v, prob in dist.items() if v <= observed)), "negative"
    return 1.0, "none"


def enumeration_cost(counts, measure: str) -> int:
    """Number of joint outcomes the enumeration would visit (for test sizing)."""
    _, _, _, n0_group, _ = marginals_by_loops(counts)
    pos_cells, neg_cells = measure_cells_by_formula(measure)
    cost = 1
    for group in sorted({(x, y, p, q) for (x, y, p, q, r, s) in pos_cells | neg_cells}):
        mass = n0_group[group]
        if mass > 0:
            cost *= math.comb(mass + 3, 3)
    return cost


def exact_test_by_full_convolution(counts, pos_cells: set, neg_cells: set
                                   ) -> tuple[float, str]:
    """Exact one-sided p-value and direction of the difference of sums over
    two cell-coordinate sets, with one full-support binomial per
    (x, y, p, q) group: no merging of equal-probability groups and no
    trimming of negligible PMF entries.

    Each group's binomial PMF covers 0..mass; the sides are convolved group
    by group in float, then the positive side with the reversed negative
    side.  The direction comes from the exact rational null mean.
    """
    n0, _, n_pqrs, n0_group, _ = marginals_by_loops(counts)
    observed = (sum(int(counts[cell_code(*c)]) for c in pos_cells)
                - sum(int(counts[cell_code(*c)]) for c in neg_cells))

    def side(cells):
        pmf, mean = np.array([1.0]), Fraction(0)
        for group in sorted({c[:4] for c in cells}):
            mass = n0_group[group]
            if mass == 0:
                continue
            p, q = group[2:]
            hits = sum(n_pqrs[(p, q, r, s)] for (r, s) in RS_ORDER
                       if group + (r, s) in cells)
            block = binom.pmf(np.arange(mass + 1), mass, hits / n0[(p, q)])
            pmf = np.convolve(pmf, block)
            mean += Fraction(mass * hits, n0[(p, q)])
        return pmf, mean

    pos_pmf, pos_mean = side(pos_cells)
    neg_pmf, neg_mean = side(neg_cells)
    diff = np.convolve(pos_pmf, neg_pmf[::-1])
    diff[diff < 1e-300] = 0.0
    support_min = -(len(neg_pmf) - 1)
    mean = pos_mean - neg_mean
    at = observed - support_min
    if observed > mean:
        return float(diff[max(at, 0):].sum()), "positive"
    if observed < mean:
        return float(diff[:max(at + 1, 0)].sum()), "negative"
    return 1.0, "none"


_MISSING_TOKENS = {"", "na", "nan", "none", "null", "."}

_DYAD_COLUMNS = ("ego_id", "alter_id", "ego_part", "alter_part",
                 "ego_b0", "alter_b0", "ego_b1", "alter_b1", "item_id")


def _is_missing(token: str) -> bool:
    return token.strip().lower() in _MISSING_TOKENS


def _parse_bit(token: str, line_no: int, column: str, path: Path) -> int:
    value = token.strip()
    if value == "0":
        return 0
    if value == "1":
        return 1
    raise InputError(f"{path}: line {line_no}: column {column!r} must be 0 or 1, "
                     f"got {token!r}")


# What an undecodable byte decodes to under errors="surrogateescape".
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def parse_dyad_csv_by_rows(path, delimiter: str = ","
                           ) -> tuple[list[DyadRecord], list[tuple[int, str | None]]]:
    """The row-by-row dyad CSV parser that ``dyadeval.io.parse_dyad_csv``
    was before the block reader: one validated ``DyadRecord`` per row, the
    row rules applied in file order, each row numbered by the physical line
    it starts on.  Returns (records, drops).

    The whole file is decoded up front, undecodable bytes kept as
    surrogates, so errors come in file order: a row holding an undecodable
    byte raises "not UTF-8 text" with the line of the file's first such
    byte when that row is reached, and a csv error raises with the line csv
    stopped on."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad_line = len((data[:exc.start] + b"x").splitlines())  # lines end as csv ends them
    text = data.decode("utf-8", errors="surrogateescape")
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)

    def rows():
        """(first line, row) over the file."""
        while True:
            line_no = reader.line_num + 1
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
            if any(map(_ESCAPED_BYTE.search, row)):
                raise InputError(f"{path}: line {bad_line}: not UTF-8 text")
            yield line_no, row

    records: list[DyadRecord] = []
    drops: list[tuple[int, str | None]] = []
    lines = rows()
    header = next(lines, None)
    if header is None:
        raise InputError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in header[1]]
    missing_cols = [c for c in _DYAD_COLUMNS if c not in header]
    if missing_cols:
        raise InputError(f"{path}: header lacks columns {missing_cols}")
    col = {name: header.index(name) for name in _DYAD_COLUMNS}
    for line_no, row in lines:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            raise InputError(f"{path}: line {line_no}: expected "
                             f"{len(header)} fields, got {len(row)}")
        item = row[col["item_id"]].strip()
        bit_cells = {name: row[col[name]] for name in _DYAD_COLUMNS[2:8]}
        if any(_is_missing(v) for v in bit_cells.values()):
            drops.append((line_no, item if not _is_missing(item) else None))
            continue
        bits = {name: _parse_bit(value, line_no, name, path)
                for name, value in bit_cells.items()}
        try:
            records.append(DyadRecord(
                ego_id=row[col["ego_id"]].strip(),
                alter_id=row[col["alter_id"]].strip(),
                x=bits["ego_part"], y=bits["alter_part"],
                p=bits["ego_b0"], q=bits["alter_b0"],
                r=bits["ego_b1"], s=bits["alter_b1"],
                item_id=item,
            ))
        except ValueError as exc:
            raise InputError(f"{path}: line {line_no}: {exc}") from None
    return records, drops


class NodeRow(NamedTuple):
    """One survey respondent: participation (None if missing) plus per-item
    (before, after) bits (None if missing)."""

    node_id: str
    participation: int | None
    item_bits: dict


def join_node_edges_by_rows(nodes, edges, item: str, orientation: str = "directed"
                            ) -> tuple[list[DyadRecord], JoinStats]:
    """The record-by-record join that ``dyadeval.io.join_node_edges`` was
    before the columnar survey: ``nodes`` are ``NodeRow``s (the last row of
    a repeated id wins), each oriented edge is checked in turn, a self edge
    first, then an unknown node, then a missing participation or bit."""
    if orientation not in ("directed", "symmetrize"):
        raise InputError(f"orientation must be directed or symmetrize, got {orientation!r}")
    lookup = {row.node_id: row for row in nodes}
    records: list[DyadRecord] = []
    unknown = missing = selfies = 0
    for a, b in edges:
        oriented = [(a, b)] if orientation == "directed" else [(a, b), (b, a)]
        for ego_id, alter_id in oriented:
            if ego_id == alter_id:
                selfies += 1
                continue
            ego, alter = lookup.get(ego_id), lookup.get(alter_id)
            if ego is None or alter is None:
                unknown += 1
                continue
            ego_bits = ego.item_bits.get(item)
            alter_bits = alter.item_bits.get(item)
            if (ego.participation is None or alter.participation is None
                    or ego_bits is None or alter_bits is None):
                missing += 1
                continue
            records.append(DyadRecord(
                ego_id=ego_id, alter_id=alter_id,
                x=ego.participation, y=alter.participation,
                p=ego_bits[0], q=alter_bits[0],
                r=ego_bits[1], s=alter_bits[1],
                item_id=item,
            ))
    stats = JoinStats(used=len(records), dropped_unknown_node=unknown,
                      dropped_missing_bits=missing, dropped_self_edge=selfies)
    return records, stats


def to_dyad_records(network, item_id: str = "sim") -> list[DyadRecord]:
    """One DyadRecord per ordered dyad of a simulated network, read node by
    node: the reference for ``dyadeval.sim.dyad_codes``."""
    if network.behavior1 is None:
        raise InputError("transition must run before dyad extraction")
    part = network.participation
    b0 = network.behavior0
    b1 = network.behavior1
    return [
        DyadRecord(
            ego_id=network.node_ids[u], alter_id=network.node_ids[v],
            x=int(part[u]), y=int(part[v]),
            p=int(b0[u]), q=int(b0[v]),
            r=int(b1[u]), s=int(b1[v]),
            item_id=item_id,
        )
        for u, v in network.dyads
    ]


def write_dyad_csv_by_records(records, path) -> None:
    """The dyad CSV writer ``dyadeval simulate --out-dyads`` had, one
    unquoted row per record."""
    lines = ["ego_id,alter_id,ego_part,alter_part,ego_b0,alter_b0,ego_b1,alter_b1,item_id"]
    lines += [f"{r.ego_id},{r.alter_id},{r.x},{r.y},{r.p},{r.q},{r.r},{r.s},{r.item_id}"
              for r in records]
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def difference_pmf_by_fractions(pos, neg) -> tuple[int, list[int], int]:
    """The PMF of X - Y for X and Y sums of independent Binomial(count,
    success_prob) blocks, exactly in the probabilities' float values:
    (least value, Python-integer numerators, their one denominator), built
    by double-loop convolutions, Y's PMF reversed."""
    pmf, scale = [1], 1
    for g, sign in [(g, 1) for g in pos] + [(g, -1) for g in neg]:
        num, den = Fraction(g.success_prob).as_integer_ratio()
        block = [math.comb(g.count, k) * num ** k * (den - num) ** (g.count - k)
                 for k in range(g.count + 1)]
        out = [0] * (len(pmf) + len(block) - 1)
        for i, a in enumerate(pmf):
            for j, b in enumerate(block[::sign]):
                out[i + j] += a * b
        pmf, scale = out, scale * den ** g.count
    return -sum(g.count for g in neg), pmf, scale


def check_degree_sequence_by_loop(degrees: np.ndarray, node_count: int) -> None:
    """The degree-sequence check ``dyadeval.sim`` had, with one Erdos-Gallai
    inequality per k in a Python loop: the same errors in the same order."""
    if len(degrees) != node_count:
        raise InputError(f"degree sequence has {len(degrees)} entries for "
                         f"{node_count} nodes")
    if np.any(degrees < 0) or np.any(degrees > node_count - 1):
        raise InputError("degrees must lie in [0, node_count - 1]")
    if int(degrees.sum()) % 2:
        raise InputError("degree sequence sum must be even")
    d = np.sort(degrees)[::-1].astype(np.int64)
    cumulative = np.cumsum(d)
    for k in range(1, len(d) + 1):
        rhs = k * (k - 1) + int(np.minimum(d[k:], k).sum())
        if cumulative[k - 1] > rhs:
            raise InputError("degree sequence is not realizable as a simple graph")
