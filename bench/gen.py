"""Seeded input generator for the benchmark workloads.

Uses numpy only, never ``dyadeval.sim``, so the inputs cannot drift when
the program changes.  Every size is fixed exactly (rows, edges, missing
cells), so runs with different seeds do the same amount of work and differ
only in which dyads land in which cells.

Behavior follows one two-wave transition law for every workload: half the
nodes participate, half hold the behavior before the intervention;
participants drop it with probability 0.5 and pick it up with 0.05,
non-participants drop it or pick it up with 0.05 each.

Each generator returns the written paths plus ``Truth``, the census the
benchmark tallied from its own arrays: ``counts[item]`` is a (64,) array
indexed by cell code (x, y, p, q, r, s with x most significant) and
``dropped[item]`` the number of dyads the program must drop for that item.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# name -> why it was chosen (mirrored in BENCHMARK.json)
WORKLOADS = {
    "paper-both": "paper-scale node+edge survey, 8 items, both engines at 100k trials: "
                  "bootstrap-bound, the only run of join_node_edges and the chart",
    "census-exact": "one 200k-dyad 64-cell table, exact engine only: isolates the O(N^2) "
                    "Poisson-Binomial convolution with no bootstrap and trivial parsing",
    "survey-ingest": "200k-row dyad CSV over 40 items of 5k dyads, exact only: "
                     "parse_dyad_csv and build_table dominate",
}

# Input sizes: "full" is what the benchmark measures, "smoke" is for its tests.
SIZES = {
    "full": {
        "paper-both": dict(nodes=444, items=8, edges=2398, missing_after=0.01, trials=100_000),
        "census-exact": dict(dyads=200_000),
        "survey-ingest": dict(items=40, dyads_per_item=5000, nodes=2000, na_rows=0.01),
    },
    "smoke": {
        "paper-both": dict(nodes=40, items=2, edges=120, missing_after=0.05, trials=2000),
        "census-exact": dict(dyads=3000),
        "survey-ingest": dict(items=3, dyads_per_item=200, nodes=60, na_rows=0.05),
    },
}

PARTICIPATION = 0.5
PREVALENCE = 0.5
DROP = {1: 0.5, 0: 0.05}     # P(1 -> 0) by participation
PICK_UP = {1: 0.05, 0: 0.05}  # P(0 -> 1) by participation

DYAD_HEADER = "ego_id,alter_id,ego_part,alter_part,ego_b0,alter_b0,ego_b1,alter_b1,item_id"


@dataclass
class Truth:
    """The census and drop counts the benchmark expects, per item in output order."""

    counts: dict[str, np.ndarray] = field(default_factory=dict)
    dropped: dict[str, int] = field(default_factory=dict)
    trials: int | None = None


def _after(rng: np.random.Generator, part: np.ndarray, before: np.ndarray) -> np.ndarray:
    """Post-intervention bit for each (participation, pre-bit) pair."""
    drop = np.where(part == 1, DROP[1], DROP[0])
    pick = np.where(part == 1, PICK_UP[1], PICK_UP[0])
    u = rng.random(before.shape)
    return np.where(before == 1, (u >= drop), (u < pick)).astype(np.int64)


def cell_codes(x, y, p, q, r, s) -> np.ndarray:
    return x << 5 | y << 4 | p << 3 | q << 2 | r << 1 | s


def _tally(codes: np.ndarray) -> np.ndarray:
    return np.bincount(codes, minlength=64).astype(np.int64)


def _distinct_pairs(rng: np.random.Generator, nodes: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``size`` distinct ordered (ego, alter) pairs with ego != alter."""
    k = rng.choice(nodes * (nodes - 1), size=size, replace=False)
    ego = k // (nodes - 1)
    off = k % (nodes - 1)
    return ego, off + (off >= ego)


def _write(path: Path, lines: list[str]) -> None:
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def paper_both(out: Path, seed: int, nodes: int, items: int, edges: int,
               missing_after: float, trials: int) -> tuple[dict, Truth]:
    rng = np.random.default_rng([seed, 1])
    names = [f"item{i + 1:02d}" for i in range(items)]
    part = (rng.random(nodes) < PARTICIPATION).astype(np.int64)
    before = (rng.random((nodes, items)) < PREVALENCE).astype(np.int64)
    after = _after(rng, part[:, None], before)
    missing = np.zeros(nodes * items, dtype=bool)
    missing[rng.choice(nodes * items, size=round(missing_after * nodes * items),
                       replace=False)] = True
    missing = missing.reshape(nodes, items)
    ego, alter = _distinct_pairs(rng, nodes, edges)

    header = ["node_id", "participation"]
    for name in names:
        header += [f"{name}_before", f"{name}_after"]
    lines = [",".join(header)]
    for n in range(nodes):
        cells = [f"v{n:04d}", str(part[n])]
        for i in range(items):
            cells += [str(before[n, i]), "NA" if missing[n, i] else str(after[n, i])]
        lines.append(",".join(cells))
    paths = {"nodes": out / "nodes.csv", "edges": out / "edges.csv"}
    _write(paths["nodes"], lines)
    _write(paths["edges"], ["# ego,alter"] + [f"v{a:04d},v{b:04d}" for a, b in zip(ego, alter)])

    truth = Truth(trials=trials)
    for i, name in enumerate(names):
        keep = ~(missing[ego, i] | missing[alter, i])
        e, a = ego[keep], alter[keep]
        truth.counts[name] = _tally(cell_codes(part[e], part[a], before[e, i], before[a, i],
                                               after[e, i], after[a, i]))
        truth.dropped[name] = int((~keep).sum())
    return paths, truth


def census_exact(out: Path, seed: int, dyads: int) -> tuple[dict, Truth]:
    rng = np.random.default_rng([seed, 2])
    x, y = (rng.random((2, dyads)) < PARTICIPATION).astype(np.int64)
    p, q = (rng.random((2, dyads)) < PREVALENCE).astype(np.int64)
    r, s = _after(rng, x, p), _after(rng, y, q)
    counts = _tally(cell_codes(x, y, p, q, r, s))
    lines = ["x,y,p,q,r,s,value"]
    for code in range(64):
        bits = [(code >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0)]
        lines.append(",".join(map(str, bits + [counts[code]])))
    paths = {"table": out / "table.csv"}
    _write(paths["table"], lines)
    return paths, Truth(counts={"table": counts}, dropped={"table": 0})


def survey_ingest(out: Path, seed: int, items: int, dyads_per_item: int, nodes: int,
                  na_rows: float) -> tuple[dict, Truth]:
    rng = np.random.default_rng([seed, 3])
    names = [f"q{i + 1:03d}" for i in range(items)]
    part = (rng.random(nodes) < PARTICIPATION).astype(np.int64)
    before = (rng.random((nodes, items)) < PREVALENCE).astype(np.int64)
    after = _after(rng, part[:, None], before)
    ego, alter, item = [], [], []
    for i in range(items):
        e, a = _distinct_pairs(rng, nodes, dyads_per_item)
        ego.append(e)
        alter.append(a)
        item.append(np.full(dyads_per_item, i))
    ego, alter, item = (np.concatenate(v) for v in (ego, alter, item))
    rows = len(ego)
    order = rng.permutation(rows)
    ego, alter, item = ego[order], alter[order], item[order]
    bits = np.stack([part[ego], part[alter], before[ego, item], before[alter, item],
                     after[ego, item], after[alter, item]], axis=1)
    na_col = np.full(rows, -1)
    na_at = rng.choice(rows, size=round(na_rows * rows), replace=False)
    na_col[na_at] = rng.integers(0, 6, size=len(na_at))

    lines = [DYAD_HEADER]
    for k in range(rows):
        cells = [str(b) for b in bits[k]]
        if na_col[k] >= 0:
            cells[na_col[k]] = "NA"
        lines.append(f"n{ego[k]:05d},n{alter[k]:05d},{','.join(cells)},{names[item[k]]}")
    paths = {"dyads": out / "dyads.csv"}
    _write(paths["dyads"], lines)

    truth = Truth()
    keep = na_col < 0
    codes = cell_codes(*bits.T)
    for i, name in enumerate(names):
        mine = item == i
        truth.counts[name] = _tally(codes[mine & keep])
        truth.dropped[name] = int((mine & ~keep).sum())
    return paths, truth


GENERATORS = {"paper-both": paper_both, "census-exact": census_exact,
              "survey-ingest": survey_ingest}


def generate(workload: str, out: Path, seed: int, size: str = "full") -> tuple[dict, Truth]:
    """Write ``workload``'s inputs for ``seed`` under ``out``; return (paths, truth)."""
    out.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](out, seed, **SIZES[size][workload])
