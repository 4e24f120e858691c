"""Tests of the benchmark itself.  Run with ``python -m pytest bench``."""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", list(gen.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a, _ = gen.generate(workload, tmp_path / "a", 5)
    b, _ = gen.generate(workload, tmp_path / "b", 5)
    c, _ = gen.generate(workload, tmp_path / "c", 6)
    assert all(a[k].read_bytes() == b[k].read_bytes() for k in a)
    assert any(a[k].read_bytes() != c[k].read_bytes() for k in a)


def _code(bits) -> int:
    return int(gen.cell_codes(*(np.int64(int(b)) for b in bits)))


def _reread(workload: str, paths: dict) -> tuple[dict, dict]:
    """Tally the written files with the csv module, as the program should."""
    counts: dict[str, np.ndarray] = {}
    dropped: dict[str, int] = {}

    def add(item, bits):
        counts.setdefault(item, np.zeros(64, dtype=np.int64))
        dropped.setdefault(item, 0)
        if "NA" in bits:
            dropped[item] += 1
        else:
            counts[item][_code(bits)] += 1

    if workload == "census-exact":
        with paths["table"].open() as f:
            rows = list(csv.DictReader(f))
        table = np.zeros(64, dtype=np.int64)
        for row in rows:
            table[_code(row[b] for b in "xypqrs")] = int(row["value"])
        return {"table": table}, {"table": 0}
    if workload == "survey-ingest":
        with paths["dyads"].open() as f:
            for row in csv.DictReader(f):
                add(row["item_id"], [row[c] for c in gen.DYAD_HEADER.split(",")[2:8]])
        return counts, dropped
    with paths["nodes"].open() as f:
        nodes = {row["node_id"]: row for row in csv.DictReader(f)}
    items = sorted(k[:-len("_before")] for k in next(iter(nodes.values()))
                   if k.endswith("_before"))
    edges = [line.split(",") for line in paths["edges"].read_text().splitlines()
             if not line.startswith("#")]
    for item in items:
        for ego, alter in edges:
            e, a = nodes[ego], nodes[alter]
            add(item, [e["participation"], a["participation"], e[f"{item}_before"],
                       a[f"{item}_before"], e[f"{item}_after"], a[f"{item}_after"]])
    return counts, dropped


@pytest.mark.parametrize("workload", list(gen.WORKLOADS))
def test_tally_equals_generated_rows(workload, tmp_path):
    paths, truth = gen.generate(workload, tmp_path, 3)
    counts, dropped = _reread(workload, paths)
    assert sorted(counts) == list(truth.counts)
    for item in counts:
        assert np.array_equal(counts[item], truth.counts[item]), item
    assert dropped == truth.dropped


def _direct_pmf(blocks) -> np.ndarray:
    pmf = np.array([1.0])
    for n, p in blocks:
        pmf = np.convolve(pmf, check._binom_pmf(n, p))
    return pmf


def test_exact_reference_matches_direct_convolution():
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 30, size=64)
    c = counts.reshape((2,) * 6)
    rows = c.sum(axis=(0, 1))
    totals = rows.sum(axis=(2, 3))
    for m, (pos_mask, neg_mask) in check._MASKS.items():
        ref = check.exact_reference(counts)[m]
        _, pos = check._side(c, pos_mask, rows, totals)
        _, neg = check._side(c, neg_mask, rows, totals)
        pmf = np.convolve(_direct_pmf((n, p) for p, n in pos.items()),
                          _direct_pmf((n, p) for p, n in neg.items())[::-1])
        at = ref.observed + sum(neg.values())
        want = {"positive": pmf[at:].sum(), "negative": pmf[:at + 1].sum(), "none": 1.0}
        assert abs(ref.p_value - want[ref.direction]) < 1e-12, m


def _smoke_report(tmp_path) -> tuple[dict, gen.Truth, dict]:
    """A hand-made correct report for a smoke census-exact input."""
    _, truth = gen.generate("census-exact", tmp_path, 9, "smoke")
    expected = {k: check.exact_reference(v) for k, v in truth.counts.items()}
    ref = expected["table"]
    results = [{"measure": m, "method": "exact", "observed": e.observed,
                "null_mean": float(e.mean), "direction": e.direction, "p_value": e.p_value,
                "alpha": 0.05, "significant": e.p_value < 0.05} for m, e in ref.items()]
    report = {"items": [{"item_id": "table", "error": None, "results": results,
                         "dyads_used": int(truth.counts["table"].sum()), "dyads_dropped": 0}]}
    return report, truth, expected


@pytest.mark.parametrize("field, delta", [("observed", 1), ("p_value", 1e-6),
                                          ("null_mean", 0.5), ("dyads_used", 1)])
def test_check_flags_a_wrong_report(tmp_path, field, delta):
    report, truth, expected = _smoke_report(tmp_path)
    assert check.check_report(report, truth, expected, "exact", None).failed == 0
    item = report["items"][0]
    target = item if field == "dyads_used" else item["results"][2]
    target[field] += delta
    verdict = check.check_report(report, truth, expected, "exact", None)
    assert (verdict.attempted, verdict.failed) == (1, 1)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", list(gen.WORKLOADS))
def test_smoke_run_passes_the_check(workload, trace, section):
    proc = _run(ROOT, "--workload", workload, "--seed", "2", "--seconds", "1",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}
    for m in BENCHMARK[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "census-exact", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
