"""In-process traced run: the CLI's pipeline re-driven through dyadeval's
public functions, with a span around every call into a layer.

The calls follow ``evaluate_items`` and the CLI's report step in order,
with the same per-item ``SeedSequence`` children, so the emitted reports
must be byte-identical to the CLI's; ``run.py`` asserts that.  With method
both the pass fits the model and evaluates the measures once more than the
CLI does, because ``run_all(method="bootstrap")`` does both inside its own
span; ``run.py`` leaves those two spans out of coverage.  Spans are
kept in memory and written out once at the end.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """Records nested spans (name, start, end, parent index, run id)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def total(self, name: str) -> float:
        return sum((s.end - s.start for s in self.spans if s.name == name), 0.0)

    def leaves(self) -> list[Span]:
        parents = {s.parent for s in self.spans}
        return [s for i, s in enumerate(self.spans) if i not in parents]

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@dataclass
class Pipeline:
    """What the traced run produced, for the probes and the metrics."""

    reports: list
    tables: list
    models: list
    children: list
    rows_parsed: int = 0
    rows_dropped: int = 0
    records_tallied: int = 0


def run_pipeline(tracer: Tracer, workload: str, paths: dict, out: dict, seed: int,
                 method: str, trials: int | None) -> Pipeline:
    """Run the CLI's pipeline for ``workload`` and write its reports to ``out``."""
    from dyadeval import census, chart, inference, io, measures, null_model
    from dyadeval.errors import DyadevalError

    t = tracer.span
    builds = []
    p = Pipeline([], [], [], [])

    def tally(records, item):
        with t("census.build_table"):
            table = census.build_table(records, item=item)
        p.records_tallied += len(records)
        return table

    with t("run"):
        if workload == "survey-ingest":
            with t("io.parse_dyad_csv"):
                records, drops = io.parse_dyad_csv(paths["dyads"])
            p.rows_parsed = len(records) + len(drops)
            p.rows_dropped = len(drops)
            by_item: dict[str, list] = {}
            for rec in records:
                by_item.setdefault(rec.item_id, []).append(rec)
            dropped: dict[str | None, int] = {}
            for _, item in drops:
                dropped[item] = dropped.get(item, 0) + 1
            for item in sorted(by_item):
                builds.append((item, lambda item=item:
                               (tally(by_item[item], item), dropped.get(item, 0))))
        elif workload == "paper-both":
            with t("io.parse_node_csv"):
                nodes, found = io.parse_node_csv(paths["nodes"])
            with t("io.read_edge_list"):
                edges = io.read_edge_list(paths["edges"])

            def build(item):
                with t("io.join_node_edges"):
                    records, stats = io.join_node_edges(nodes, edges, item, "directed")
                p.rows_dropped += stats.dropped
                return tally(records, item), stats.dropped

            builds = [(item, lambda item=item: build(item)) for item in sorted(found)]
        else:
            def build_table64():
                with t("io.parse_table64"):
                    return io.parse_table64(paths["table"]), 0

            builds = [("table", build_table64)]

        p.children = np.random.SeedSequence(seed).spawn(len(builds))
        for (item, make), child in zip(builds, p.children):
            with t("item"):
                try:
                    table, n_dropped = make()
                    with t("null_model.fit"):
                        model = null_model.fit(table)
                    with t("measures.evaluate"):
                        for m in measures.MeasureId:
                            measures.evaluate(table, m)
                    boot = {}
                    if method in ("bootstrap", "both"):
                        config = inference.InferenceConfig(method="bootstrap", trials=trials,
                                                           seed=child)
                        with t("inference.bootstrap"):
                            boot = {r.measure: r for r in inference.run_all(table, config)}
                    exact = {}
                    if method in ("exact", "both"):
                        for m in measures.MeasureId:
                            with t(f"inference.exact.{m.value}"):
                                exact[m] = inference.exact_test(table, m, model=model)
                    results = [r for m in measures.MeasureId
                               for r in (boot.get(m), exact.get(m)) if r is not None]
                    p.reports.append(io.ItemReport(item, item, tuple(results),
                                                   dyads_used=table.total,
                                                   dyads_dropped=n_dropped))
                    p.tables.append(table)
                    p.models.append(model)
                except DyadevalError as exc:
                    p.reports.append(io.ItemReport(item, item, (), 0, 0, error=str(exc)))
        for fmt in ("csv", "json"):
            with t("io.emit_report"):
                io.emit_report(p.reports, fmt, out[fmt], seed=seed)
        if "svg" in out:
            with t("chart.emit_bubble_chart"):
                chart.emit_bubble_chart(p.reports, out["svg"])
    return p


def peak_mb(fn) -> float:
    """Peak Python-heap allocation of ``fn()`` in MB, from tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
