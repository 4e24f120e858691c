"""dyadeval benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload paper-both --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Closed loop, one client: the installed CLI (``python -m dyadeval.cli`` with
``src`` on the path) runs as a fresh child process, one at a time, until
``--seconds`` of measuring have passed (at least three runs).  A
``--version`` child before each CLI run times the import cost every
invocation pays (``setup_s``), so set-up and CLI runs see the same host
conditions; one untimed ``--version`` first fills the bytecode cache.
BLAS/OpenMP thread pools are pinned to one thread.

Inputs come from ``gen.py`` (numpy only, seeded by ``--seed``); every CLI
report is checked by ``check.py`` without dyadeval.  An item fails on a
nonzero exit, an item error, a check mismatch, or report bytes that differ
from the first run's.

``--trace 0`` prints the end-to-end metrics (medians over the runs):
wall_s, dyads_per_s (sum of dyads_used over items / wall_s), setup_s and
peak_rss_mb (the child's max RSS from its own wait4 rusage).

``--trace 1`` instead runs the CLI three times untraced, then the same
pipeline three times in process through ``tracing.py``, with a span around
every call into the io, census, null_model, measures, inference and chart
layers, and prints the per-layer metrics (medians over the passes).  Traced
reports must be byte-identical to the CLI's.  Spans go to
``.bench_run/<workload>-<size>/trace.json``.  Layers a workload does not run
read 0.

The last line of stdout is one JSON object: correct, attempted and failed
(items), and metrics.  Exact p-values for the default seed are pinned in
``reference/<workload>.json``; to re-record them after an intended change,
run with ``--seed 1`` and copy ``.bench_run/<workload>-full/exact_p.json``
there.
"""

from __future__ import annotations

import os

THREAD_VARS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_VARS)  # before numpy is imported, for the traced run

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402

DEFAULT_SEED = 1
MIN_RUNS = 3
TRACE_PASSES = 3
DEADLINE_S = 170.0
METHOD = {"paper-both": "both", "census-exact": "exact", "survey-ingest": "exact"}
MEASURES = [f"M{i}" for i in range(1, 9)]

END_TO_END_UNITS = {"wall_s": "s", "dyads_per_s": "dyads/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "io.parse_dyad_csv.s": "s",
    "io.parse_dyad_csv.rows_per_s": "rows/s",
    "io.parse_dyad_csv.peak_mb": "MB",
    "io.parse_node_csv.s": "s",
    "io.read_edge_list.s": "s",
    "io.join_node_edges.s": "s",
    "io.parse_table64.s": "s",
    "io.emit_report.s": "s",
    "chart.emit_bubble_chart.s": "s",
    "io.rows_dropped": "count",
    "census.build_table.s": "s",
    "census.build_table.records_per_s": "records/s",
    "null_model.fit.s": "s",
    "measures.evaluate.s": "s",
    "inference.exact.s": "s",
    **{f"inference.exact.{m}.s": "s" for m in MEASURES},
    "inference.bootstrap.s": "s",
    "inference.bootstrap.trials_per_s": "trials/s",
    "inference.bootstrap.peak_mb": "MB",
    "inference.bootstrap_test.M1.s": "s",
    "inference.bootstrap.eval_per_measure.s": "s",
    "inference.direction_mismatch": "count",
    "inference.boot_gap_se_max": "SE",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class Child:
    """Runs dyadeval CLI children against the checkout's ``src``."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, args: list[str], log: Path) -> tuple[float, float, int]:
        """(wall seconds, max RSS in MB, exit code) of one CLI process."""
        cmd = [sys.executable, "-m", "dyadeval.cli", *args]
        with log.open("wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=sink,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode


@dataclass
class Prepared:
    workload: str
    seed: int
    work: Path
    paths: dict
    truth: gen.Truth
    expected: dict
    pinned: dict | None
    method: str
    trials: int | None

    def outputs(self, stem: str) -> dict[str, Path]:
        out = {"csv": self.work / f"{stem}.csv", "json": self.work / f"{stem}.json"}
        if self.workload == "paper-both":
            out["svg"] = self.work / f"{stem}.svg"
        return out

    def cli_args(self, out: dict[str, Path]) -> list[str]:
        p = {k: str(v) for k, v in self.paths.items()}
        if self.workload == "census-exact":
            args = ["table", "--table", p["table"]]
        elif self.workload == "survey-ingest":
            args = ["evaluate", "--dyads", p["dyads"]]
        else:
            args = ["evaluate", "--nodes", p["nodes"], "--edges", p["edges"],
                    "--trials", str(self.trials), "--chart", str(out["svg"])]
        return args + ["--method", self.method, "--seed", str(self.seed),
                       "--out-csv", str(out["csv"]), "--out-json", str(out["json"])]


def prepare(workload: str, seed: int, size: str) -> Prepared:
    work = ROOT / ".bench_run" / f"{workload}-{size}"  # reused across seeds
    paths, truth = gen.generate(workload, work / "inputs", seed, size)
    (work / "inputs" / "workload.json").write_text(json.dumps(
        {"workload": workload, "why": gen.WORKLOADS[workload], "seed": seed, "size": size,
         "sizes": gen.SIZES[size][workload]}, indent=2) + "\n")
    expected = {item: check.exact_reference(c) for item, c in truth.counts.items()}
    pinned = None
    if seed == DEFAULT_SEED and size == "full":
        pinned = json.loads((HERE / "reference" / f"{workload}.json").read_text())
    return Prepared(workload, seed, work, paths, truth, expected, pinned,
                    METHOD[workload], truth.trials)


def check_outputs(prep: Prepared, out: dict[str, Path], code: int,
                  reference_bytes: dict[str, bytes] | None) -> check.Verdict:
    """Check one CLI run's reports; every item fails on a nonzero exit or
    on report bytes that differ from ``reference_bytes``."""
    n_items = len(prep.truth.counts)
    failed = check.Verdict(attempted=n_items, failed=n_items)
    if code != 0:
        failed.problems.append(f"exit code {code}")
        return failed
    try:
        report = json.loads(out["json"].read_text())
    except (OSError, ValueError) as exc:
        failed.problems.append(f"unreadable JSON report: {exc}")
        return failed
    v = check.check_report(report, prep.truth, prep.expected, prep.method, prep.pinned)
    if reference_bytes is not None:
        differ = [k for k, path in out.items()
                  if not path.exists() or path.read_bytes() != reference_bytes[k]]
        if differ:
            v.failed = v.attempted
            v.problems.append(f"report bytes differ from the reference run: {differ}")
    return v


@dataclass
class Result:
    workload: str
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, v: check.Verdict) -> None:
        self.attempted += v.attempted
        self.failed += v.failed
        self.notes += v.problems


def measure(prep: Prepared, seconds: float, child: Child) -> Result:
    log = prep.work / "cli.log"
    child.run(["--version"], log)  # fills the bytecode cache
    out = prep.outputs("cli")
    args = prep.cli_args(out)
    start = time.perf_counter()
    setups, walls, rss, rates = [], [], [], []
    result = Result(prep.workload, {}, END_TO_END_UNITS)
    first: dict[str, bytes] | None = None
    last = 0.0
    while len(walls) < MIN_RUNS or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        setups.append(child.run(["--version"], log)[0])
        wall, mb, code = child.run(args, log)
        v = check_outputs(prep, out, code, first)
        if first is None and code == 0:
            first = {k: path.read_bytes() for k, path in out.items()}
            (prep.work / "exact_p.json").write_text(json.dumps(
                check.exact_p_values(json.loads(first["json"])), indent=1) + "\n")
        result.add(v)
        walls.append(wall)
        rss.append(mb)
        rates.append(v.dyads_used / wall)
        last = time.perf_counter() - began
    result.metrics = {"wall_s": statistics.median(walls),
                      "dyads_per_s": statistics.median(rates),
                      "setup_s": statistics.median(setups),
                      "peak_rss_mb": statistics.median(rss)}
    result.notes.append(f"{len(walls)} CLI runs, {len(setups)} setup runs; "
                        f"wall_s runs {[round(w, 3) for w in walls]}, "
                        f"setup_s runs {[round(w, 3) for w in setups]}")
    return result


# With method both, run_all(method="bootstrap") already fits the model and
# evaluates the eight measures, as the CLI's single run_all does; the traced
# pass's own fit and evaluate spans then repeat that work, so they are timed
# but left out of the coverage of the CLI's wall time.
REPEATED_UNDER_BOTH = ("null_model.fit", "measures.evaluate")


def _span_metrics(tracer, pipe, method: str, trials: int | None) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counts."""
    total = tracer.total
    repeated = REPEATED_UNDER_BOTH if method == "both" else ()
    parse_s, build_s, boot_s = (total("io.parse_dyad_csv"), total("census.build_table"),
                                total("inference.bootstrap"))
    return {
        "io.parse_dyad_csv.s": parse_s,
        "io.parse_dyad_csv.rows_per_s": pipe.rows_parsed / parse_s if parse_s else 0.0,
        "io.parse_node_csv.s": total("io.parse_node_csv"),
        "io.read_edge_list.s": total("io.read_edge_list"),
        "io.join_node_edges.s": total("io.join_node_edges"),
        "io.parse_table64.s": total("io.parse_table64"),
        "io.emit_report.s": total("io.emit_report"),
        "chart.emit_bubble_chart.s": total("chart.emit_bubble_chart"),
        "io.rows_dropped": pipe.rows_dropped,
        "census.build_table.s": build_s,
        "census.build_table.records_per_s": pipe.records_tallied / build_s if build_s else 0.0,
        "null_model.fit.s": total("null_model.fit"),
        "measures.evaluate.s": total("measures.evaluate"),
        "inference.exact.s": sum(total(f"inference.exact.{k}") for k in MEASURES),
        **{f"inference.exact.{k}.s": total(f"inference.exact.{k}") for k in MEASURES},
        "inference.bootstrap.s": boot_s,
        "inference.bootstrap.trials_per_s": (len(pipe.tables) * trials / boot_s
                                             if boot_s else 0.0),
        "covered": sum(s.end - s.start for s in tracer.leaves() if s.name not in repeated),
        "run": total("run"),
    }


def traced(prep: Prepared, child: Child) -> Result:
    import tracing

    from dyadeval import inference, io
    from dyadeval.measures import MeasureId

    # the CLI's median over MIN_RUNS runs is the wall time the spans must cover
    untraced = measure(prep, 0.0, child)
    wall_s, setup_s = untraced.metrics["wall_s"], untraced.metrics["setup_s"]
    result = Result(prep.workload, {}, PER_LAYER_UNITS, untraced.attempted, untraced.failed,
                    untraced.notes)
    out = prep.outputs("cli")
    cli_bytes = ({k: path.read_bytes() for k, path in out.items()}
                 if all(path.exists() for path in out.values()) else None)

    run_id = f"{prep.workload}/seed{prep.seed}/pid{os.getpid()}"
    tracers, passes = [], []
    for i in range(TRACE_PASSES):
        tracer = tracing.Tracer(f"{run_id}/pass{i}")
        traced_out = prep.outputs("traced")
        pipe = tracing.run_pipeline(tracer, prep.workload, prep.paths, traced_out, prep.seed,
                                    prep.method, prep.trials)
        verdict = check_outputs(prep, traced_out, 0, cli_bytes)
        if cli_bytes is None:
            verdict.failed = verdict.attempted
            verdict.problems.append("no CLI report to compare the traced one with")
        result.add(verdict)
        tracers.append(tracer)
        passes.append(_span_metrics(tracer, pipe, prep.method, prep.trials))
    m = {k: statistics.median(p[k] for p in passes) for k in passes[0]}

    probes = tracing.Tracer(f"{run_id}/probes")
    boot_peak = parse_peak = 0.0
    if prep.method == "both":
        for table, model, seed in zip(pipe.tables, pipe.models, pipe.children):
            with probes.span("inference.bootstrap_test.M1"):
                inference.bootstrap_test(table, MeasureId.M1, prep.trials, seed,
                                         model=model)
        config = inference.InferenceConfig(method="bootstrap", trials=prep.trials,
                                           seed=pipe.children[0])
        boot_peak = tracing.peak_mb(lambda: inference.run_all(pipe.tables[0], config))
    if prep.workload == "survey-ingest":
        parse_peak = tracing.peak_mb(lambda: io.parse_dyad_csv(prep.paths["dyads"]))
    boot_s, boot_m1 = m["inference.bootstrap.s"], probes.total("inference.bootstrap_test.M1")
    covered, run_s = m.pop("covered"), m.pop("run")
    m.update({
        "io.parse_dyad_csv.peak_mb": parse_peak,
        "inference.bootstrap.peak_mb": boot_peak,
        "inference.bootstrap_test.M1.s": boot_m1,
        # run_all scores 8 measures on one sampling pass, bootstrap_test one
        "inference.bootstrap.eval_per_measure.s": ((boot_s - boot_m1) / (7 * len(pipe.tables))
                                                   if boot_s else 0.0),
        "inference.direction_mismatch": verdict.direction_mismatch,
        "inference.boot_gap_se_max": verdict.boot_gap_se_max,
        "trace.unattributed_s": wall_s - setup_s - covered,
        "trace.overhead_s": run_s - (wall_s - setup_s),
    })
    result.metrics = {k: m[k] for k in PER_LAYER_UNITS}

    self_by_layer: dict[str, float] = {}
    for s, own in zip(tracer.spans, tracer.self_times()):
        layer = s.name.split(".")[0] if "." in s.name else "glue"
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
    coverage = (covered + setup_s) / wall_s
    result.notes.append(f"CLI wall_s {wall_s:.4f} s, setup_s {setup_s:.4f} s, traced pass "
                        f"{run_s:.4f} s (median of {TRACE_PASSES}); layer spans + setup "
                        f"cover {100 * coverage:.1f}% of wall_s")
    if prep.method == "both":
        result.notes.append("method both: null_model.fit.s and measures.evaluate.s time a "
                            "second fit and eight more evaluate calls than the CLI makes "
                            "(run_all repeats them); coverage leaves them out")
    result.notes.append("self time by layer, last pass: " + ", ".join(
        f"{k} {v:.4f} s" for k, v in sorted(self_by_layer.items())))
    (prep.work / "trace.json").write_text(json.dumps({
        "environment": environment(), "wall_s": wall_s, "setup_s": setup_s,
        "coverage": coverage, "self_s_by_layer": self_by_layer,
        "spans": [s for t in tracers + [probes] for s in t.to_json()]}, indent=1) + "\n")
    return result


def environment() -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "missing"
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "cpu": cpu, "nproc": os.cpu_count(),
            "threads": THREAD_VARS}


def report(results: list[Result], prefix: bool) -> dict:
    """Print every metric by name with its unit; return the final JSON object."""
    metrics = {}
    for r in results:
        print(f"== {r.workload}: {r.attempted - r.failed}/{r.attempted} items correct")
        for note in r.notes:
            print(f"   {note}")
        for name, value in r.metrics.items():
            print(f"   {name:42s} {value:>16.6g} {r.units[name]}")
            key = f"{r.workload}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": r.units[name]}
        print(f"   {'error_rate':42s} {r.failed / r.attempted:>16.6g} failed/attempted items")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(gen.SIZES), default="full",
                        help="input size; smoke is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "dyadeval" / "cli.py").is_file():
        print(f"error: no dyadeval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("env " + json.dumps(environment()))
    workloads = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        prep = prepare(workload, args.seed, args.size)
        child = Child(time.monotonic() + DEADLINE_S)
        results.append(traced(prep, child) if args.trace else
                       measure(prep, args.seconds, child))
    print(json.dumps(report(results, prefix=args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
