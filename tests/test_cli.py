import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import to_dyad_records, write_dyad_csv_by_records

from dyadeval import (DyadRecord, EdgeModel, InferenceConfig, SimParams, cli, inference, io,
                      run_all, simulate)
from dyadeval.cli import main
from dyadeval.inference import _binom_pmf

DYAD_HEADER = "ego_id,alter_id,ego_part,alter_part,ego_b0,alter_b0,ego_b1,alter_b1,item_id"


def frozen_dyads(tmp_path, name="d.csv"):
    lines = [DYAD_HEADER]
    for i, (p, q) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        for x in (0, 1):
            lines.append(f"e{i}{x},a{i}{x},{x},0,{p},{q},{p},{q},q1")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def uniform_table(tmp_path):
    lines = ["x,y,p,q,rs00,rs01,rs10,rs11"]
    for group in range(16):
        bits = [(group >> shift) & 1 for shift in (3, 2, 1, 0)]
        lines.append(",".join(map(str, bits)) + ",0.25,0.25,0.25,0.25")
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_evaluate_writes_outputs(tmp_path, capsys):
    dyads = frozen_dyads(tmp_path)
    out_csv = tmp_path / "r.csv"
    out_json = tmp_path / "r.json"
    out_svg = tmp_path / "r.svg"
    code = main(["evaluate", "--dyads", str(dyads), "--method", "both",
                 "--trials", "100", "--seed", "7",
                 "--out-csv", str(out_csv), "--out-json", str(out_json),
                 "--chart", str(out_svg)])
    assert code == 0
    assert out_csv.exists() and out_json.exists() and out_svg.exists()
    payload = json.loads(out_json.read_text())
    assert payload["items"][0]["item_id"] == "q1"
    assert len(payload["items"][0]["results"]) == 16


def test_evaluate_requires_input(tmp_path, capsys):
    assert main(["evaluate", "--method", "exact"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_input_error(tmp_path, capsys):
    assert main(["evaluate", "--dyads", str(tmp_path / "nope.csv")]) == 1


@pytest.mark.parametrize("argv", [
    ["evaluate", "--dyads", "{dir}"],
    ["evaluate", "--nodes", "{dir}", "--edges", "{edges}"],
    ["evaluate", "--nodes", "{nodes}", "--edges", "{dir}"],
    ["evaluate", "--dyads", "{dyads}", "--items", "{dir}"],
    ["table", "--table", "{dir}"],
    ["--config", "{dir}", "table", "--table", "{table}"],
    ["chart", "--results", "{dir}", "--out", "{out}/c.svg"],
    ["simulate", "--edge-kind", "edge_list", "--edges-file", "{dir}", "--evaluate"],
], ids=["dyads", "nodes", "edges", "items", "table", "config", "results", "edges-file"])
def test_directory_as_input_is_input_error(tmp_path, capsys, argv):
    inputs = dict(_guard_inputs(tmp_path), dir=str(tmp_path / "a dir"), out=str(tmp_path))
    (tmp_path / "a dir").mkdir()
    capsys.readouterr()
    assert main([arg.format(**inputs) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path / "a dir") in err
    assert "Traceback" not in err


def test_table_subcommand_probabilities(tmp_path, capsys):
    table = uniform_table(tmp_path)
    out_csv = tmp_path / "r.csv"
    code = main(["table", "--table", str(table), "--probabilities",
                 "--scale", "100", "--method", "exact",
                 "--out-csv", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 9
    assert "1600" in lines[1]


def test_table_bad_probabilities_exit_code(tmp_path, capsys):
    lines = ["x,y,p,q,rs00,rs01,rs10,rs11"]
    for group in range(16):
        bits = [(group >> shift) & 1 for shift in (3, 2, 1, 0)]
        lines.append(",".join(map(str, bits)) + ",0.5,0.25,0.25,0.25")
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    code = main(["table", "--table", str(bad), "--probabilities",
                 "--out-csv", str(tmp_path / "r.csv")])
    assert code == 1


def test_table_scale_over_the_cell_bound_is_input_error(tmp_path, capsys):
    # 2**62 would make every cell 2**60 and wrap the table's int64 total to
    # 0, 10**20 would not fit an int64 cell; 2**53 dyads a cell still run
    argv = ["table", "--table", str(uniform_table(tmp_path)), "--probabilities",
            "--method", "bootstrap", "--trials", "100", "--out-csv", str(tmp_path / "r.csv")]
    for scale in (2**62, 10**20, 2**53 + 1):
        assert main(argv + ["--scale", str(scale)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: scale must lie in [1, 2**53], got {scale}\n"
    assert main(argv + ["--scale", str(2**53)]) == 0
    rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
    assert len(rows) == 8 and all(f",{64 * 2**51},0," in row for row in rows)


def deviating_table(tmp_path):
    """A 64-cell table of 10 to 29 dyads a cell on which every measure
    deviates from its null mean, so that every exact tail is evaluated."""
    counts = np.random.default_rng(0).integers(10, 30, 64)
    lines = ["x,y,p,q,r,s,value"] + [",".join(map(str, bits)) + f",{n}"
                                     for bits, n in zip(np.ndindex(*(2,) * 6), counts)]
    path = tmp_path / "t64.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_table_integrity_failure_exit_code(tmp_path, monkeypatch, capsys):
    full_pmf = _binom_pmf
    monkeypatch.setattr("dyadeval.inference._binom_pmf",
                        lambda *args: 0.5 * full_pmf(*args))
    code = main(["table", "--table", str(deviating_table(tmp_path)),
                 "--method", "exact", "--out-csv", str(tmp_path / "r.csv")])
    assert code == 2
    assert "numerical integrity failure" in capsys.readouterr().err


def test_too_narrow_binomial_window_exit_code(tmp_path, monkeypatch, capsys):
    # tilted windows cut to their middle third lose mass: the tilted mass
    # check fails (pb_pmf's "cuts off" check is tested in test_inference)
    first_windows = inference._first_windows

    def narrowed(n, p, bound):
        lo, hi = first_windows(n, p, bound)
        return lo + (hi - lo) // 3, hi - (hi - lo) // 3

    monkeypatch.setattr(inference, "_first_windows", narrowed)
    code = main(["table", "--table", str(deviating_table(tmp_path)),
                 "--method", "exact", "--out-csv", str(tmp_path / "r.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical integrity failure" in err and "tilted difference pmf sums to" in err
    assert not (tmp_path / "r.csv").exists()


def random_dyads(tmp_path, items=("q1", "q2", "q3"), per_item=300, seed=0):
    rng = np.random.default_rng(seed)
    lines = [DYAD_HEADER]
    for item in items:
        for i, bits in enumerate(rng.integers(0, 2, size=(per_item, 6))):
            lines.append(f"e{i},a{i}," + ",".join(map(str, bits)) + f",{item}")
    path = tmp_path / "many.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_pooled_reports_equal_serial_reports(tmp_path, monkeypatch, capsys):
    dyads = random_dyads(tmp_path)
    items = tmp_path / "items.csv"
    # q0 is absent from the data: its empty census fails inside a worker
    items.write_text("item_id,label\nq1,one\nq0,absent\nq2,two\nq3,three\n")
    outputs = {}
    for workers in (1, 2):
        monkeypatch.setattr(io, "_worker_count", lambda: workers)
        out = tmp_path / f"w{workers}"
        out.mkdir()
        code = main(["evaluate", "--dyads", str(dyads), "--items", str(items),
                     "--method", "both", "--trials", "3000", "--seed", "13",
                     "--out-csv", str(out / "r.csv"), "--out-json", str(out / "r.json"),
                     "--chart", str(out / "r.svg")])
        assert code == 0
        outputs[workers] = [(out / name).read_bytes() for name in ("r.csv", "r.json", "r.svg")]
    assert outputs[1] == outputs[2]
    payload = json.loads(outputs[2][1])
    assert [item["item_id"] for item in payload["items"]] == ["q1", "q0", "q2", "q3"]
    assert [item["error"] is None for item in payload["items"]] == [True, False, True, True]


def test_pooled_chunk_ranges_equal_serial_and_in_process_reports(tmp_path, monkeypatch):
    # chunks of 257 trials: one item's bootstrap spreads over several tasks,
    # and the reports still match one worker and an in-process run_all
    monkeypatch.setattr("dyadeval.inference._CHUNK_TRIALS", 257)
    table = uniform_table(tmp_path)
    dyads = random_dyads(tmp_path, items=("q1", "q2"))
    runs = {"table": ["table", "--table", str(table), "--probabilities", "--two-sided"],
            "evaluate": ["evaluate", "--dyads", str(dyads)]}
    for name, argv in runs.items():
        outputs = {}
        for workers in (1, 2):
            monkeypatch.setattr(io, "_worker_count", lambda: workers)
            out = tmp_path / f"{name}{workers}.json"
            assert main(argv + ["--method", "both", "--trials", "1500", "--seed", "5",
                                "--out-json", str(out)]) == 0
            outputs[workers] = out.read_bytes()
        assert outputs[1] == outputs[2]
    child = np.random.SeedSequence(5).spawn(1)[0]
    expected = run_all(io.parse_table64(table, probabilities=True),
                       InferenceConfig(trials=1500, seed=child, two_sided=True))
    reported = json.loads((tmp_path / "table2.json").read_text())["items"][0]["results"]
    assert [(r["method"], r["p_value"], r["p_value_addone"]) for r in reported] == [
        (r.method, r.p_value, r.p_value_addone) for r in expected]


def test_integrity_failure_in_worker_exit_code(tmp_path, monkeypatch, capsys):
    # forked workers inherit the patched PMF
    full_pmf = _binom_pmf
    monkeypatch.setattr("dyadeval.inference._binom_pmf",
                        lambda *args: 0.5 * full_pmf(*args))
    monkeypatch.setattr(io, "_worker_count", lambda: 2)
    code = main(["evaluate", "--dyads", str(random_dyads(tmp_path, items=("q1", "q2"))),
                 "--method", "exact", "--out-csv", str(tmp_path / "r.csv")])
    assert code == 2
    assert "numerical integrity failure" in capsys.readouterr().err


def test_summary_gap_in_standard_errors(tmp_path, capsys):
    dyads = random_dyads(tmp_path, items=("q1",))
    out_json = tmp_path / "r.json"
    assert main(["evaluate", "--dyads", str(dyads), "--method", "both",
                 "--trials", "2000", "--seed", "3", "--out-json", str(out_json)]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if "max |p_bootstrap - p_exact|" in line)
    p = {(r["measure"], r["method"]): r["p_value"]
         for r in json.loads(out_json.read_text())["items"][0]["results"]}
    gaps = {m: abs(p[m, "bootstrap"] - p[m, "exact"]) for m, _ in p}
    worst = max(gaps, key=gaps.get)
    # SE = sqrt(p_exact (1 - p_exact) / B_N), floored at 1 / B_N
    se = max((p[worst, "exact"] * (1 - p[worst, "exact"]) / 2000) ** 0.5, 1 / 2000)
    assert line.endswith(f"measures: {gaps[worst]:.6g} ({gaps[worst] / se:.1f} SE)")


def test_simulate_writes_dyads_and_evaluates(tmp_path, capsys):
    out_dyads = tmp_path / "sim.csv"
    out_json = tmp_path / "sim.json"
    code = main(["simulate", "--node-count", "60", "--mean-degree", "6",
                 "--seed", "3", "--out-dyads", str(out_dyads),
                 "--evaluate", "--method", "exact",
                 "--out-json", str(out_json)])
    assert code == 0
    header = out_dyads.read_text().splitlines()[0]
    assert header == DYAD_HEADER
    payload = json.loads(out_json.read_text())
    assert len(payload["items"][0]["results"]) == 8


@pytest.mark.parametrize("flags, model", [
    ([], EdgeModel()),
    (["--both-orientations", "--mean-degree", "4"],
     EdgeModel(mean_degree=4.0, both_orientations=True)),
    (["--edge-kind", "small_world", "--ws-k", "4"],
     EdgeModel(kind="small_world", k=4, rewire_prob=0.1)),
])
def test_simulate_out_dyads_match_record_writer(tmp_path, capsys, flags, model):
    """With ids that need no quoting, the dyad CSV written from the
    network's arrays is byte for byte the one written a record per dyad."""
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--node-count", "50", "--seed", "4", "--item-id", "q7",
                 "--out-dyads", str(out)] + flags) == 0
    network = simulate(SimParams(seed=4), node_count=50, edge_model=model)
    write_dyad_csv_by_records(to_dyad_records(network, item_id="q7"), tmp_path / "ref.csv")
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_simulate_item_id_with_delimiter_reads_back(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--node-count", "30", "--item-id", "a,b", "--out-dyads",
                 str(out), "--evaluate", "--method", "exact"]) == 0
    summary = capsys.readouterr().out
    assert "ERROR" not in summary and re.search(r"^a,b: \d+ dyads", summary, re.M)
    records, drops = io.parse_dyad_csv(out)
    assert records and not drops and {rec.item_id for rec in records} == {"a,b"}


@pytest.mark.parametrize("item_id", [" x", "x ", "\tx"])
def test_simulate_item_id_with_outer_whitespace_is_error(tmp_path, capsys, item_id):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--node-count", "30", "--item-id", item_id,
                 "--out-dyads", str(out), "--evaluate", "--method", "exact"]) == 1
    err = capsys.readouterr().err
    assert f"error: --item-id must not start or end with whitespace, got {item_id!r}" in err
    assert not out.exists()


def test_simulate_edge_ids_with_comma_are_quoted(tmp_path, capsys):
    edges = tmp_path / "e.txt"
    edges.write_text('p,q;r\nr;s"t\ns"t;p,q\n')
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--edge-kind", "edge_list", "--edges-file", str(edges),
                 "--delimiter", ";", "--node-count", "3", "--out-dyads", str(out),
                 "--evaluate", "--method", "exact"]) == 0
    assert "ERROR" not in capsys.readouterr().out
    assert out.read_text().splitlines()[1].startswith('"p,q",r,')
    records, drops = io.parse_dyad_csv(out)
    assert [(rec.ego_id, rec.alter_id) for rec in records] == [
        ("p,q", "r"), ("r", 's"t'), ('s"t', "p,q")]
    assert not drops


def _guard_inputs(tmp_path) -> dict:
    """A node survey with missing cells, an edge list with unknown ids and
    self edges, a dyad CSV and a probability table."""
    rng = np.random.default_rng(5)
    lines = ["node_id,participation,q1_before,q1_after,q2_before,q2_after"]
    for i in range(80):
        cells = [str(int(rng.integers(2))) if rng.random() > 0.1 else "NA" for _ in range(5)]
        lines.append(",".join([f"v{i}"] + cells))
    (tmp_path / "n.csv").write_text("\n".join(lines) + "\n")
    ends = rng.integers(84, size=(400, 2))
    ends[::40, 1] = ends[::40, 0]
    (tmp_path / "e.txt").write_text("".join(f"v{a},v{b}\n" for a, b in ends))
    for name, item in (("d.csv", "q1"), ("dq.csv", "a,b")):  # plain, and read by csv
        assert main(["simulate", "--node-count", "60", "--mean-degree", "6", "--seed", "2",
                     "--item-id", item, "--out-dyads", str(tmp_path / name)]) == 0
    return {"nodes": str(tmp_path / "n.csv"), "edges": str(tmp_path / "e.txt"),
            "dyads": str(tmp_path / "d.csv"), "quoted_dyads": str(tmp_path / "dq.csv"),
            "table": str(uniform_table(tmp_path))}


_GUARDED_RUNS = {
    "nodes-directed": ["evaluate", "--nodes", "{nodes}", "--edges", "{edges}"],
    "nodes-symmetrize": ["evaluate", "--nodes", "{nodes}", "--edges", "{edges}",
                         "--orientation", "symmetrize"],
    "dyads": ["evaluate", "--dyads", "{dyads}"],
    "dyads-quoted": ["evaluate", "--dyads", "{quoted_dyads}"],
    "table": ["table", "--table", "{table}", "--probabilities"],
    "simulate": ["simulate", "--node-count", "60", "--mean-degree", "6",
                 "--out-dyads", "{out}/sim.csv", "--evaluate"],
}


@pytest.mark.parametrize("run", sorted(_GUARDED_RUNS))
def test_no_runtime_path_builds_a_record(tmp_path, monkeypatch, capsys, run):
    """Every CLI run tallies cell codes: with DyadRecord made unbuildable it
    still succeeds, and its reports are byte-identical to a normal run's."""
    inputs = _guard_inputs(tmp_path)
    outputs = {}
    for guarded in (False, True):
        out = tmp_path / f"out{guarded}"
        out.mkdir()
        argv = [arg.format(out=out, **inputs) for arg in _GUARDED_RUNS[run]]
        argv += ["--method", "both", "--trials", "2000", "--seed", "3",
                 "--out-csv", f"{out}/r.csv", "--out-json", f"{out}/r.json",
                 "--chart", f"{out}/r.svg"]
        with monkeypatch.context() as patch:
            if guarded:
                def unbuildable(record):
                    raise AssertionError(f"a runtime path built {record!r}")
                patch.setattr(DyadRecord, "__post_init__", unbuildable)
            assert main(argv) == 0, capsys.readouterr()
        outputs[guarded] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert {"r.csv", "r.json", "r.svg"} <= set(outputs[True])
    assert outputs[True] == outputs[False]


_EXACT_RUNS = {
    "table-exact": ["table", "--table", "{table}", "--method", "exact"],
    "dyads-items": ["evaluate", "--dyads", "{dyads}", "--method", "exact"],
    "nodes-both": ["evaluate", "--nodes", "{nodes}", "--edges", "{edges}", "--method", "both",
                   "--trials", "2000", "--seed", "3"],
}


@pytest.mark.parametrize("run", sorted(_EXACT_RUNS))
def test_no_runtime_path_builds_a_trial_group(tmp_path, monkeypatch, capsys, run):
    """The exact engine keeps each measure's binomial blocks as arrays from
    plan to tail: with TrialGroup made unbuildable, a run at two forked
    workers still succeeds, and its reports are byte-identical to a normal
    run's."""
    monkeypatch.setattr(io, "_worker_count", lambda: 2)
    inputs = dict(_guard_inputs(tmp_path), table=str(deviating_table(tmp_path)),
                  dyads=str(random_dyads(tmp_path)))
    outputs = {}
    for guarded in (False, True):
        out = tmp_path / f"out{guarded}"
        out.mkdir()
        argv = [arg.format(**inputs) for arg in _EXACT_RUNS[run]] + report_flags(out)
        with monkeypatch.context() as patch:
            if guarded:
                def unbuildable(group):
                    raise AssertionError(f"a runtime path built {group!r}")
                patch.setattr(inference.TrialGroup, "__post_init__", unbuildable)
            assert main(argv) == 0, capsys.readouterr()
        outputs[guarded] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert set(outputs[True]) == {"r.csv", "r.json", "r.svg"}
    assert outputs[True] == outputs[False]


def test_simulate_requires_some_output(capsys):
    assert main(["simulate", "--node-count", "30"]) == 1


@pytest.mark.parametrize("seed, flags", [
    (1, []), (5, []), (8, ["--invert-behavior"]), (13, ["--invert-behavior", "--two-sided"])])
def test_simulate_evaluate_equals_evaluate_of_its_dyads(tmp_path, capsys, seed, flags):
    """``simulate --evaluate`` tallies the simulated codes in memory; its
    reports are those of ``evaluate`` over the dyad CSV it writes."""
    common = ["--seed", str(seed), "--method", "both", "--trials", "3000", *flags]
    dyads, items = tmp_path / "s.csv", tmp_path / "items.csv"
    items.write_text("q3\n")
    runs = {
        "a": ["simulate", "--node-count", "60", "--mean-degree", "6", "--item-id", "q3",
              "--out-dyads", str(dyads), "--evaluate"],
        "b": ["evaluate", "--dyads", str(dyads), "--items", str(items)],
    }
    outputs = {}
    for name, argv in runs.items():
        out = [tmp_path / f"{name}.{ext}" for ext in ("json", "csv", "svg")]
        assert main(argv + common + ["--out-json", str(out[0]), "--out-csv", str(out[1]),
                                     "--chart", str(out[2])]) == 0
        outputs[name] = [path.read_bytes() for path in out]
    assert outputs["a"] == outputs["b"]
    assert json.loads(outputs["a"][0])["items"][0]["dyads_used"] > 0


def test_simulate_evaluate_writes_no_dyad_csv(tmp_path, monkeypatch, capsys):
    """Without ``--out-dyads``, ``simulate --evaluate`` writes no dyad CSV,
    and its reports equal those of a run that writes one."""
    argv = ["simulate", "--node-count", "60", "--mean-degree", "6", "--seed", "4",
            "--evaluate", "--method", "both", "--trials", "2000"]
    with monkeypatch.context() as patch:
        def unwritable(*args):
            raise AssertionError("simulate wrote a dyad CSV it was not asked for")
        patch.setattr("dyadeval.cli._write_dyad_csv", unwritable)
        assert main(argv + ["--out-json", str(tmp_path / "a.json")]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.json"]
    assert main(argv + ["--out-dyads", str(tmp_path / "s.csv"),
                        "--out-json", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_items_file_repeated_id_is_error(tmp_path, capsys):
    dyads = frozen_dyads(tmp_path)
    items = tmp_path / "items.csv"
    items.write_text("item_id,label\nq1,A\n# note\nq1,B\n")
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--dyads", str(dyads), "--items", str(items),
                 "--method", "exact", "--out-csv", str(out)]) == 1
    assert f"error: {items}: line 4: item_id 'q1' repeats line 2" in capsys.readouterr().err
    assert not out.exists()


def test_items_file_header_after_comment_and_labels_on_one_line(tmp_path):
    # the header may follow a comment, and a label holding U+2028 or a form
    # feed stays on its line, with LF, CRLF and CR-only line ends alike
    for eol in ("\n", "\r\n", "\r"):
        items = tmp_path / "items.csv"
        items.write_bytes(eol.join(["# survey items", "item_id,label", "q1,Weekly\u2028drinking",
                                    "q2,Any\x0csmoking", ""]).encode())
        assert cli._read_items_file(str(items), ",") == {
            "q1": "Weekly\u2028drinking", "q2": "Any\x0csmoking"}, repr(eol)


def test_config_value_stays_on_its_line(tmp_path):
    cfg = tmp_path / "dyadeval.cfg"
    cfg.write_text("# defaults\nmethod = exact\u2028bootstrap\nseed = 1\x0c2\n")
    assert cli._load_config_file(str(cfg)) == {"method": "exact\u2028bootstrap",
                                               "seed": "1\x0c2"}


def _with(where, key, value):
    """An edit setting ``key`` of the first item (``where="item"``) or of its
    first result to ``value``."""
    def edit(payload):
        item = payload["items"][0]
        (item if where == "item" else item["results"][0])[key] = value
        return payload
    return edit


def _measure_m9(payload):
    payload["items"][0]["results"][0]["measure"] = "M9"
    return payload


@pytest.mark.parametrize("edit, message", [
    (lambda payload: [], "expected a JSON object, got list"),
    (lambda payload: {"items": [{"item_id": "a"}]}, "report lacks key 'results'"),
    (lambda payload: {"items": [{**payload["items"][0], "results": [[]]}]}, "malformed report"),
    (_measure_m9, "unknown measure: 'M9' is not a valid MeasureId"),
    (_with("result", "p_value", "abc"), "items[0].results[0]: field 'p_value' must be a number, got \"abc\""),
    (_with("result", "p_value", None), "items[0].results[0]: field 'p_value' must be a number, got null"),
    (_with("result", "observed", 1.5), "items[0].results[0]: field 'observed' must be an integer, got 1.5"),
    (_with("result", "null_mean", True), "items[0].results[0]: field 'null_mean' must be a number, got true"),
    (_with("result", "significant", 0), "items[0].results[0]: field 'significant' must be true or false, got 0"),
    (_with("result", "trials", "5"), "items[0].results[0]: field 'trials' must be an integer or null, got \"5\""),
    (_with("result", "measure", 1), "items[0].results[0]: field 'measure' must be a measure id or null, got 1"),
    (_with("result", "direction", None), "items[0].results[0]: field 'direction' must be a string, got null"),
    (_with("item", "dyads_used", "12"), "items[0]: field 'dyads_used' must be an integer, got \"12\""),
    (_with("item", "item_label", None), "items[0]: field 'item_label' must be a string, got null"),
    (_with("item", "error", 5), "items[0]: field 'error' must be a string or null, got 5"),
    (_with("item", "results", {}), "items[0]: field 'results' must be a list, got {}"),
    (_with("result", "direction", "sideways"),
     "items[0].results[0]: field 'direction' must be positive, negative or none, got \"sideways\""),
    (_with("result", "method", "coinflip"),
     "items[0].results[0]: field 'method' must be bootstrap or exact, got \"coinflip\""),
    (_with("result", "p_value", -5.0), "items[0].results[0]: field 'p_value' must be in [0, 1], got -5.0"),
    (_with("result", "p_value", 1.5), "items[0].results[0]: field 'p_value' must be in [0, 1], got 1.5"),
    (_with("result", "p_value_addone", 2),
     "items[0].results[0]: field 'p_value_addone' must be in [0, 1], got 2"),
    (_with("result", "alpha", 0), "items[0].results[0]: field 'alpha' must be in (0, 1), got 0"),
    (_with("result", "alpha", 1.0), "items[0].results[0]: field 'alpha' must be in (0, 1), got 1.0"),
    (_with("result", "trials", 0), "items[0].results[0]: field 'trials' must be at least 1, got 0"),
    (_with("item", "dyads_used", -1), "items[0]: field 'dyads_used' must be at least 0, got -1"),
    (_with("item", "dyads_dropped", -3), "items[0]: field 'dyads_dropped' must be at least 0, got -3"),
])
def test_chart_of_malformed_report_is_input_error(tmp_path, capsys, edit, message):
    report = tmp_path / "r.json"
    assert main(["evaluate", "--dyads", str(frozen_dyads(tmp_path)), "--method", "exact",
                 "--out-json", str(report)]) == 0
    report.write_text(json.dumps(edit(json.loads(report.read_text()))))
    capsys.readouterr()
    assert main(["chart", "--results", str(report), "--out", str(tmp_path / "c.svg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {report}: {message}")
    assert "Traceback" not in err
    assert not (tmp_path / "c.svg").exists()


def test_exact_on_huge_table_is_input_error_at_once(tmp_path):
    # 64 cells of 2**53 dyads: one binomial window alone would take ~160 GB
    table = tmp_path / "t64.csv"
    table.write_text("x,y,p,q,r,s,value\n" + "".join(
        f"{','.join(map(str, bits))},{2**53}\n" for bits in np.ndindex(*(2,) * 6)))
    run = run_python(
        "import resource, sys, time\nfrom dyadeval.cli import main\n"
        "start = time.perf_counter()\ncode = main(sys.argv[1:])\n"
        "print(time.perf_counter() - start, "
        "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n",
        "table", "--table", str(table), "--method", "exact",
        "--out-csv", str(tmp_path / "r.csv"))
    out, err = run.stdout.decode(), run.stderr.decode()
    assert run.returncode == 1, err
    assert "Traceback" not in err
    assert re.search(r"ERROR M1: the exact engine would convolve binomial windows of up to "
                     r"[\d,]+ entries on one side, .*use --method bootstrap", out)
    seconds, max_rss_kb = err.split()[-2:]
    assert float(seconds) < 1.0 and int(max_rss_kb) < 200_000


def test_chart_subcommand(tmp_path, capsys):
    dyads = frozen_dyads(tmp_path)
    out_json = tmp_path / "r.json"
    main(["evaluate", "--dyads", str(dyads), "--method", "exact",
          "--out-json", str(out_json)])
    out_svg = tmp_path / "c.svg"
    code = main(["chart", "--results", str(out_json), "--out", str(out_svg)])
    assert code == 0
    assert out_svg.read_text().startswith("<?xml")


def test_config_file_defaults_and_override(tmp_path, capsys):
    dyads = frozen_dyads(tmp_path)
    cfg = tmp_path / "dyadeval.cfg"
    cfg.write_text("# defaults\nmethod = exact\nseed = 11\ntrials = 60\n")
    out_a = tmp_path / "a.json"
    code = main(["--config", str(cfg), "evaluate", "--dyads", str(dyads),
                 "--out-json", str(out_a)])
    assert code == 0
    payload = json.loads(out_a.read_text())
    assert payload["seed"] == 11
    assert all(r["method"] == "exact" for r in payload["items"][0]["results"])
    # explicit flag beats the config value
    out_b = tmp_path / "b.json"
    code = main(["--config", str(cfg), "evaluate", "--dyads", str(dyads),
                 "--seed", "99", "--out-json", str(out_b)])
    assert code == 0
    assert json.loads(out_b.read_text())["seed"] == 99


def test_config_equals_spelling_is_loaded(tmp_path, capsys):
    dyads = frozen_dyads(tmp_path)
    cfg = tmp_path / "dyadeval.cfg"
    cfg.write_text("method = exact\nseed = 7\n")
    reports = []
    for spelling in (["--config", str(cfg)], [f"--config={cfg}"]):
        out = tmp_path / f"{len(reports)}.json"
        assert main([*spelling, "evaluate", "--dyads", str(dyads), "--out-json", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    payload = json.loads(reports[0])
    assert payload["seed"] == 7
    assert all(r["method"] == "exact" for r in payload["items"][0]["results"])


@pytest.mark.parametrize("line", ["trials = 1e4", "seed = 1.5", "two_sided = maybe"])
def test_config_value_of_wrong_type_is_input_error(tmp_path, capsys, line):
    dyads = frozen_dyads(tmp_path)
    cfg = tmp_path / "dyadeval.cfg"
    cfg.write_text(line + "\n")
    argv = ["--config", str(cfg), "evaluate", "--dyads", str(dyads)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command, line", [
    ("table", "trails = 5"), ("table", "items = x"), ("evaluate", "trails = 5")])
def test_config_key_naming_no_flag_is_input_error(tmp_path, capsys, command, line):
    cfg = tmp_path / "dyadeval.cfg"
    cfg.write_text(f"method = exact\n{line}\n")
    inputs = {"table": ["--table", str(uniform_table(tmp_path)), "--probabilities"],
              "evaluate": ["--dyads", str(frozen_dyads(tmp_path))]}
    out = tmp_path / "r.json"
    assert main(["--config", str(cfg), command, *inputs[command], "--out-json", str(out)]) == 1
    key = line.split(" = ")[0]
    assert f"error: config key {key!r} names no flag of {command!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("token, probabilities", [
    ("inf", False), ("nan", False), ("1e30", False), ("abc", True), ("nan", True),
    (None, False)])
def test_bad_table_value_is_input_error(tmp_path, capsys, token, probabilities):
    # the value at line 5, column rs01, is bad; None cuts that row short there
    lines = ["x,y,p,q,rs00,rs01,rs10,rs11"]
    for group in range(16):
        bits = [(group >> shift) & 1 for shift in (3, 2, 1, 0)]
        values = ["0.25" if probabilities else "3"] * 4
        if group == 3:
            values = values[:1] if token is None else [values[0], token, *values[2:]]
        lines.append(",".join(map(str, bits + values)))
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    argv = ["table", "--table", str(path), "--method", "exact"]
    assert main(argv + (["--probabilities"] if probabilities else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 5: column 'rs01' ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["table", "--table", "t.txt", "--items", "i.csv"],
    ["simulate", "--evaluate", "--items", "i.csv"],
])
def test_items_flag_only_on_evaluate(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments: --items" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "dyadeval" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code", [
    (["table", "--table", "x", "--method", "banana"], 1),
    (["evaluate", "--no-such-flag"], 1),
    ([], 1),
    (["evaluate", "--help"], 0),
])
def test_argument_parsing_exit_codes(argv, code, capsys):
    # a usage error is an input error (1); 2 means a failed integrity check
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code


def test_bad_delimiter_is_input_error(tmp_path, capsys):
    dyads = frozen_dyads(tmp_path)
    items = tmp_path / "items.csv"
    items.write_text("q1;;first\n")
    assert main(["evaluate", "--dyads", str(dyads), "--items", str(items),
                 "--delimiter", ";;"]) == 1
    assert "delimiter must be one character, got ';;'" in capsys.readouterr().err


@pytest.mark.parametrize("delimiter", ["", ";;"])
@pytest.mark.parametrize("source", ["dyads", "nodes", "table"])
def test_every_reader_checks_delimiter(tmp_path, capsys, source, delimiter):
    # checked before the items file is split at it
    items = tmp_path / "items.csv"
    items.write_text("q1\n")
    nodes = tmp_path / "n.csv"
    nodes.write_text("node_id,participation,q1_before,q1_after\na,1,1,0\n")
    edges = tmp_path / "e.txt"
    edges.write_text("a,b\n")
    argv = {"dyads": ["evaluate", "--dyads", str(frozen_dyads(tmp_path)), "--items", str(items)],
            "nodes": ["evaluate", "--nodes", str(nodes), "--edges", str(edges),
                      "--items", str(items)],
            "table": ["table", "--table", str(uniform_table(tmp_path)), "--probabilities"]}
    assert main(argv[source] + ["--delimiter", delimiter]) == 1
    err = capsys.readouterr().err
    assert err == f"error: delimiter must be one character, got {delimiter!r}\n"


@pytest.mark.parametrize("delimiter", ["", ";;"])
def test_simulate_bad_delimiter_is_input_error(tmp_path, capsys, delimiter):
    edges = tmp_path / "e.txt"
    edges.write_text("a;;b\nb;;c\n")
    assert main(["simulate", "--edge-kind", "edge_list", "--edges-file", str(edges),
                 "--delimiter", delimiter, "--out-dyads", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert f"error: delimiter must be one character, got {delimiter!r}" in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("flag", ["--items", "--config"])
def test_undecodable_items_or_config_file(tmp_path, capsys, flag):
    dyads = frozen_dyads(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"# first line\nq\xff1 = x\n")
    argv = ["evaluate", "--dyads", str(dyads), "--method", "exact"]
    argv = argv + [flag, str(bad)] if flag == "--items" else [flag, str(bad)] + argv
    assert main(argv) == 1
    assert f"{bad}: line 2: not UTF-8 text" in capsys.readouterr().err


def test_evaluate_node_edges_inputs(tmp_path, capsys):
    nodes = tmp_path / "n.csv"
    nodes.write_text("node_id,participation,q1_before,q1_after\n"
                     "a,1,1,0\nb,0,1,1\nc,1,0,0\n")
    edges = tmp_path / "e.txt"
    edges.write_text("# ties\na,b\nb,c\n")
    out_json = tmp_path / "r.json"
    code = main(["evaluate", "--nodes", str(nodes), "--edges", str(edges),
                 "--orientation", "symmetrize", "--method", "exact",
                 "--out-json", str(out_json)])
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["items"][0]["dyads_used"] == 4


@pytest.mark.parametrize("reader", ["dyads", "nodes", "table"])
def test_bad_bit_error_names_the_file(tmp_path, capsys, reader):
    # a bit token other than 0/1 (or a missing-value token) at line 3
    if reader == "dyads":
        path = tmp_path / "d.csv"
        path.write_text(DYAD_HEADER + "\nu,v,1,0,1,1,0,1,q1\nu,v,1,0,2,1,0,1,q1\n")
        argv, column = ["evaluate", "--dyads", str(path)], "ego_b0"
    elif reader == "nodes":
        path = tmp_path / "n.csv"
        path.write_text("node_id,participation,q1_before,q1_after\na,1,1,0\nb,0,2,1\n")
        edges = tmp_path / "e.txt"
        edges.write_text("a,b\n")
        argv, column = ["evaluate", "--nodes", str(path), "--edges", str(edges)], "q1_before"
    else:
        path = tmp_path / "t.csv"
        path.write_text(uniform_table(tmp_path).read_text().replace("\n0,0,0,1,", "\n0,0,0,x,"))
        argv, column = ["table", "--table", str(path), "--probabilities"], "q"
    out = tmp_path / "r.json"
    assert main(argv + ["--method", "exact", "--out-json", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 3: column {column!r} must be 0 or 1")
    assert "Traceback" not in err
    assert not out.exists()


def test_unwritable_output_is_input_error(tmp_path, capsys):
    dyads = frozen_dyads(tmp_path)
    code = main(["evaluate", "--dyads", str(dyads), "--method", "exact",
                 "--out-csv", str(tmp_path / "no_dir" / "r.csv")])
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("command", ["table", "evaluate", "simulate"])
def test_negative_seed_is_input_error(tmp_path, capsys, command, where):
    # numpy's SeedSequence refuses a negative seed with a ValueError
    argv = {"table": ["table", "--table", str(deviating_table(tmp_path))],
            "evaluate": ["evaluate", "--dyads", str(frozen_dyads(tmp_path))],
            "simulate": ["simulate", "--node-count", "40", "--evaluate"]}[command]
    argv += ["--trials", "50", "--out-csv", str(tmp_path / "r.csv")]
    seed = "-1" if where == "flag" else "-2"
    if where == "flag":
        argv += ["--seed", seed]
    else:
        (tmp_path / "dyadeval.cfg").write_text(f"seed = {seed}\n")
        argv = ["--config", str(tmp_path / "dyadeval.cfg"), *argv]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: seed must be >= 0, got {seed}\n"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "1e300", "-1"])
def test_simulate_mean_degree_out_of_range_is_input_error(tmp_path, capsys, value):
    assert main(["simulate", "--mean-degree", value, "--out-dyads", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: mean degree must lie in [0, node_count - 1], got {float(value)}\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("value", ["nan", "-0.1", "1.5"])
def test_simulate_ws_beta_out_of_range_is_input_error(tmp_path, capsys, value):
    assert main(["simulate", "--edge-kind", "small_world", "--ws-beta", value,
                 "--out-dyads", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: small-world rewire probability must lie in [0, 1], got {float(value)}\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("value", ["7", "nan", "0", "1", "-0.5"])
def test_chart_alpha_out_of_range_is_input_error(tmp_path, capsys, value):
    # --alpha 7 once drew glyphs for results that are not significant, and
    # --alpha nan drew none
    report = tmp_path / "r.json"
    assert main(["evaluate", "--dyads", str(frozen_dyads(tmp_path)), "--method", "exact",
                 "--out-json", str(report)]) == 0
    capsys.readouterr()
    assert main(["chart", "--results", str(report), "--out", str(tmp_path / "c.svg"),
                 "--alpha", value]) == 1
    assert capsys.readouterr().err == f"error: alpha must lie in (0, 1), got {float(value)}\n"
    assert not (tmp_path / "c.svg").exists()


def test_summary_printed(tmp_path, capsys):
    dyads = frozen_dyads(tmp_path)
    assert main(["evaluate", "--dyads", str(dyads), "--method", "exact"]) == 0
    out = capsys.readouterr().out
    assert "q1: 8 dyads" in out
    assert "M1" in out


SRC = Path(__file__).resolve().parents[1] / "src"
RUN_CLI = "import runpy\nrunpy.run_module('dyadeval.cli', run_name='__main__')\n"


def run_python(code, *args, stdout=subprocess.PIPE):
    """Run ``python -c code args`` with the package importable and stdout
    block-buffered, as it is by default when piped."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=300)


def report_flags(out):
    return ["--out-csv", str(out / "r.csv"), "--out-json", str(out / "r.json"),
            "--chart", str(out / "r.svg")]


def run_into_closed_pipe(*args):
    reader, writer = os.pipe()
    os.close(reader)  # the reader is gone before the first byte
    try:
        return run_python(RUN_CLI, *args, stdout=writer)
    finally:
        os.close(writer)


@pytest.mark.parametrize("write_reports", [True, False])
def test_closed_stdout_exits_quietly(tmp_path, write_reports, capsys):
    # reports on: two summary lines per item, broken at the final flush;
    # reports off: ~12 KB of per-measure lines, broken inside the summary
    dyads = random_dyads(tmp_path, items=tuple(f"q{i}" for i in range(10)))
    args = ["evaluate", "--dyads", str(dyads), "--method", "both", "--trials", "200"]
    child, parent = tmp_path / "child", tmp_path / "parent"
    child.mkdir()
    parent.mkdir()
    proc = run_into_closed_pipe(*args, *(report_flags(child) if write_reports else []))
    assert proc.returncode == 0
    assert proc.stderr == b""
    if write_reports:
        assert main(args + report_flags(parent)) == 0
        for name in ("r.csv", "r.json", "r.svg"):
            assert (child / name).read_bytes() == (parent / name).read_bytes()


def test_version_into_closed_stdout_exits_quietly():
    proc = run_into_closed_pipe("--version")
    assert (proc.returncode, proc.stderr) == (0, b"")


BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
"""


def test_exact_run_whose_newton_step_overflows_writes_nothing_to_stderr(tmp_path):
    # M8's Newton step for theta overflows on this 39,434-dyad census
    counts = {1: 14, 2: 9, 9: 72, 16: 5284, 27: 726, 29: 9025, 47: 12093, 50: 11602, 53: 604,
              54: 1, 57: 1, 60: 3}
    table = tmp_path / "t64.csv"
    table.write_text("x,y,p,q,r,s,value\n" + "".join(
        f"{','.join(map(str, bits))},{counts.get(code, 0)}\n"
        for code, bits in enumerate(np.ndindex(*(2,) * 6))))
    run = run_python(RUN_CLI, "table", "--table", str(table), "--method", "exact")
    assert (run.returncode, run.stderr) == (0, b"")


def test_runtime_never_imports_scipy(tmp_path, capsys):
    version = run_python(BLOCK_SCIPY + RUN_CLI, "--version")
    assert version.returncode == 0, version.stderr.decode()
    assert version.stdout.startswith(b"dyadeval ")
    args = ["table", "--table", str(uniform_table(tmp_path)), "--probabilities",
            "--method", "exact", "--out-json"]
    proc = run_python(BLOCK_SCIPY + RUN_CLI, *args, str(tmp_path / "child.json"))
    assert proc.returncode == 0, proc.stderr.decode()
    assert main(args + [str(tmp_path / "parent.json")]) == 0
    assert (tmp_path / "child.json").read_bytes() == (tmp_path / "parent.json").read_bytes()
    loaded = run_python("import sys, dyadeval.cli\n"
                        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded.stdout.strip() == b"[]"
