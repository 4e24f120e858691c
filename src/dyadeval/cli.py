"""Command-line interface.

Subcommands:

    evaluate   survey inputs (dyad CSV, or node CSV + edge list) -> reports
    table      a 64-cell census file -> reports
    simulate   synthetic two-wave scenario -> dyad CSV and/or reports
    chart      a JSON report -> bubble-chart SVG

A config file (``--config PATH`` or ``--config=PATH``, ``key = value``
lines, '#' comments) supplies defaults, each read as its flag's value would
be; a key that names no flag of the subcommand is an input error, and
explicit command-line flags win.  Exit codes: 0 success, 1 input
error (a usage error included), 2 numerical-integrity failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

from ._version import __version__
from .chart import emit_bubble_chart
from .errors import InputError, NumericalIntegrityError
from .census import CELL_BITS, tally
from .inference import InferenceConfig, method_disagreement
from .io import (ItemReport, _check_delimiter, _csv_quote, _listed_lines, _write_bytes,
                 dyad_csv_items, emit_report, evaluate_items, load_report_json,
                 node_edge_items, parse_table64, read_edge_list)
from .sim import EdgeModel, SimParams, dyad_codes, simulate

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the input-error code;
    argparse's own 2 is the numerical-integrity code here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_inference_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--method", choices=("bootstrap", "exact", "both"),
                    default="both", help="significance method(s) to run")
    sp.add_argument("--trials", type=int, default=100_000,
                    help="bootstrap sample count (B_N)")
    sp.add_argument("--alpha", type=float, default=0.05,
                    help="significance level for flagging; the tail is taken in the observed "
                         "direction, so under the null the flag fires more often than alpha "
                         "(6.8-10%% of paper-scale censuses at 0.05, see README)")
    sp.add_argument("--seed", type=int, default=0, help="master random seed")
    sp.add_argument("--two-sided", action="store_true",
                    help="double the one-sided tail probability (under the null the flag "
                         "then fires less often than alpha: 3.1-4.6%% at 0.05)")
    sp.add_argument("--invert-behavior", action="store_true",
                    help="recode all behavior bits (p,q,r,s -> 1-bit) before tallying")


def _add_report_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out-csv", metavar="PATH", help="write results CSV here")
    sp.add_argument("--out-json", metavar="PATH", help="write results JSON here")
    sp.add_argument("--chart", metavar="PATH", help="write bubble-chart SVG here")
    sp.add_argument("--chart-method", choices=("bootstrap", "exact"),
                    help="which method the chart shows (default: exact if run)")
    sp.add_argument("--delimiter", default=",", help="field delimiter for text inputs")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dyadeval",
        description="Evaluate community-intervention effects on dyadic network data.")
    parser.add_argument("--version", action="version", version=f"dyadeval {__version__}")
    parser.add_argument("--config", metavar="PATH",
                        help="key = value defaults file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="evaluate survey data")
    ev.add_argument("--dyads", metavar="PATH", help="dyad CSV input")
    ev.add_argument("--nodes", metavar="PATH", help="node survey CSV input")
    ev.add_argument("--edges", metavar="PATH", help="edge list input")
    ev.add_argument("--orientation", choices=("directed", "symmetrize"),
                    default="directed",
                    help="dyad orientation policy for node+edge inputs")
    ev.add_argument("--items", metavar="PATH",
                    help="CSV of item_id,label restricting and labeling items")
    _add_inference_flags(ev)
    _add_report_flags(ev)

    tb = sub.add_parser("table", help="evaluate a 64-cell census file")
    tb.add_argument("--table", metavar="PATH", required=True, help="64-cell table file")
    tb.add_argument("--probabilities", action="store_true",
                    help="table holds per-row probabilities, not counts")
    tb.add_argument("--scale", type=int, default=100,
                    help="count = round(probability * scale), scale 1 to 2**53")
    tb.add_argument("--item-id", default="table", help="item id for the report")
    tb.add_argument("--item-label", default=None, help="item label for the report")
    _add_inference_flags(tb)
    _add_report_flags(tb)

    sim = sub.add_parser("simulate", help="generate a synthetic two-wave dataset")
    sim.add_argument("--node-count", type=int, default=444)
    sim.add_argument("--edge-kind", choices=("degree_sequence", "small_world", "edge_list"),
                     default="degree_sequence")
    sim.add_argument("--mean-degree", type=float, default=10.8,
                     help="degree_sequence: target mean degree")
    sim.add_argument("--ws-k", type=int, default=10, help="small_world: ring degree (even)")
    sim.add_argument("--ws-beta", type=float, default=0.1,
                     help="small_world: rewiring probability")
    sim.add_argument("--edges-file", metavar="PATH",
                     help="edge_list: fixed topology to use verbatim")
    sim.add_argument("--both-orientations", action="store_true",
                     help="emit each generated edge in both directions")
    sim.add_argument("--participation-prob", type=float, default=0.5)
    sim.add_argument("--p-effect", type=float, default=0.5)
    sim.add_argument("--p-against", type=float, default=0.05)
    sim.add_argument("--p-change", type=float, default=0.05)
    sim.add_argument("--p-stay", type=float, default=0.05)
    sim.add_argument("--p-social", type=float, default=0.2)
    sim.add_argument("--baseline-prevalence", type=float, default=0.5)
    sim.add_argument("--peer-weight", type=float, default=0.5)
    sim.add_argument("--item-id", default="sim", help="item id stamped on the dyads")
    sim.add_argument("--out-dyads", metavar="PATH", help="write the dyad CSV here")
    sim.add_argument("--evaluate", action="store_true",
                     help="run the significance tests on the simulated data")
    _add_inference_flags(sim)
    _add_report_flags(sim)

    ch = sub.add_parser("chart", help="render a bubble chart from a JSON report")
    ch.add_argument("--results", metavar="PATH", required=True, help="JSON report input")
    ch.add_argument("--out", metavar="PATH", required=True, help="SVG output path")
    ch.add_argument("--chart-method", choices=("bootstrap", "exact"))
    ch.add_argument("--alpha", type=float, default=None,
                    help="override the significance cutoff used for glyphs")

    parser._dyadeval_subparsers = {"evaluate": ev, "table": tb, "simulate": sim, "chart": ch}
    return parser


def _load_config_file(path: str) -> dict:
    values = {}
    for line_no, line in _listed_lines(path, "config file"):
        if "=" not in line:
            raise InputError(f"{path}: line {line_no}: expected 'key = value'")
        key, _, raw = line.partition("=")
        values[key.strip().replace("-", "_")] = raw.strip()
    return values


def _switch(key: str, raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise InputError(f"config key {key}: expected true or false, got {raw!r}")


def _set_config_defaults(parser: argparse.ArgumentParser, command: str,
                         values: dict[str, str]) -> None:
    """Make a config file's values the defaults of subcommand ``command``.
    A key that names none of its flags is an input error.  argparse passes
    a string default through its option's ``type`` as it would the flag's
    own value, so a bad number is a usage error; on/off flags take
    true/yes/on/1 or false/no/off/0."""
    sp = parser._dyadeval_subparsers[command]
    flags = {a.dest for a in sp._actions if not isinstance(a, argparse._HelpAction)}
    for key in values:
        if key not in flags:
            raise InputError(f"config key {key!r} names no flag of {command!r}")
    switches = {a.dest for a in sp._actions if isinstance(a, argparse._StoreTrueAction)}
    sp.set_defaults(**{key: _switch(key, raw) if key in switches else raw
                       for key, raw in values.items()})


def _read_items_file(path: str, delimiter: str) -> dict[str, str]:
    """Item id -> label, in file order, past an ``item_id`` header; an id
    may be listed once only."""
    labels: dict[str, str] = {}
    lines_of: dict[str, int] = {}
    for listed, (line_no, line) in enumerate(_listed_lines(path, "items file")):
        parts = line.split(delimiter, 1)
        item_id = parts[0].strip()
        if not listed and item_id.lower() == "item_id":
            continue
        if item_id in labels:
            raise InputError(f"{path}: line {line_no}: item_id {item_id!r} "
                             f"repeats line {lines_of[item_id]}")
        labels[item_id] = parts[1].strip() if len(parts) > 1 else item_id
        lines_of[item_id] = line_no
    if not labels:
        raise InputError(f"{path}: no items listed")
    return labels


def _emit_all(reports: list[ItemReport], args) -> int:
    for fmt, path in (("csv", args.out_csv), ("json", args.out_json)):
        if path:
            emit_report(reports, fmt, path, seed=args.seed)
    if args.chart:
        emit_bubble_chart(reports, args.chart, method=args.chart_method)
    wrote = bool(args.out_csv or args.out_json or args.chart)
    # isolated per-item failures keep the run alive, but a run in which
    # nothing succeeded is an input error
    code = 0 if any(r.error is None for r in reports) else 1
    try:
        _print_summary(reports, verbose=not wrote)
    except BrokenPipeError:
        _silence_stdout()
    return code


def _silence_stdout() -> None:
    """Point stdout at devnull once its reader has gone (e.g. ``| head``),
    so the rest of the output and the flush at interpreter exit are dropped
    quietly.  The reports are written before anything is printed."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _print_summary(reports: list[ItemReport], verbose: bool) -> None:
    for report in reports:
        if report.error is not None:
            print(f"{report.item_id}: ERROR {report.error}")
            continue
        flagged = sum(1 for res in report.results if res.significant)
        print(f"{report.item_id}: {report.dyads_used} dyads "
              f"({report.dyads_dropped} dropped), {flagged} significant results")
        if verbose:
            for res in report.results:
                print(f"  {res.measure.value if res.measure else '-'} "
                      f"[{res.method}] observed={res.observed} "
                      f"null_mean={res.null_mean:.3f} direction={res.direction} "
                      f"p={res.p_value:.6g}"
                      + (" *" if res.significant else ""))
        gaps = method_disagreement(report.results)
        if gaps:
            worst = max(gaps, key=gaps.get)
            print(f"  max |p_bootstrap - p_exact| across measures: {gaps[worst]:.6g} "
                  f"({gaps[worst] / _monte_carlo_se(report.results, worst):.1f} SE)")


def _monte_carlo_se(results, measure) -> float:
    """Standard error of a bootstrap p-value, sqrt(p_exact (1 - p_exact) / B_N)
    floored at 1 / B_N."""
    by_method = {res.method: res for res in results if res.measure == measure}
    p, trials = by_method["exact"].p_value, by_method["bootstrap"].trials
    return max(math.sqrt(p * (1.0 - p) / trials), 1.0 / trials)


def _evaluate(items, args) -> int:
    """Test each (item id, label, census, dyads dropped) of ``items`` and
    write the reports."""
    if args.invert_behavior:
        items = [(item, label, table.invert_behavior(), dropped)
                 for item, label, table, dropped in items]
    config = InferenceConfig(method=args.method, trials=args.trials, alpha=args.alpha,
                             seed=args.seed, two_sided=args.two_sided)
    return _emit_all(evaluate_items(items, config), args)


def _cmd_evaluate(args) -> int:
    if args.dyads and (args.nodes or args.edges):
        raise InputError("give either --dyads or --nodes/--edges, not both")
    if not (args.dyads or (args.nodes and args.edges)):
        raise InputError("evaluate needs --dyads, or --nodes and --edges")
    _check_delimiter(args.delimiter)  # before the items file is split at it
    labels = _read_items_file(args.items, args.delimiter) if args.items else {}
    wanted = list(labels) or None
    if args.dyads:
        built = dyad_csv_items(args.dyads, wanted, args.delimiter)
    else:
        built = node_edge_items(args.nodes, args.edges, wanted, args.orientation,
                                args.delimiter)
    return _evaluate([(item, labels.get(item, item), table, dropped)
                      for item, table, dropped in built], args)


def _cmd_table(args) -> int:
    label = args.item_label if args.item_label is not None else args.item_id
    table = parse_table64(args.table, args.probabilities, args.scale, args.delimiter)
    return _evaluate([(args.item_id, label, table, 0)], args)


# The six bit fields of a dyad CSV row, by cell code.
_BIT_FIELDS = [",".join(map(str, bits)) for bits in CELL_BITS]


def _write_dyad_csv(network, codes, item_id: str, path) -> None:
    """The network's dyads as a dyad CSV, one row per code in ``codes``."""
    ids, item = [_csv_quote(node) for node in network.node_ids], _csv_quote(item_id)
    lines = ["ego_id,alter_id,ego_part,alter_part,ego_b0,alter_b0,ego_b1,alter_b1,item_id"]
    lines += [f"{ids[u]},{ids[v]},{_BIT_FIELDS[code]},{item}"
              for (u, v), code in zip(network.dyads, codes.tolist())]
    _write_bytes(Path(path), ("\n".join(lines) + "\n").encode("utf-8"))


def _cmd_simulate(args) -> int:
    if not (args.out_dyads or args.evaluate):
        raise InputError("simulate needs --out-dyads and/or --evaluate")
    if args.item_id != args.item_id.strip():  # the dyad CSV reader strips item ids
        raise InputError(f"--item-id must not start or end with whitespace, "
                         f"got {args.item_id!r}")
    edges = None
    if args.edge_kind == "edge_list":
        if not args.edges_file:
            raise InputError("edge_kind=edge_list requires --edges-file")
        edges = tuple(read_edge_list(args.edges_file, args.delimiter))
    # generate_network reads only the fields of the model's own kind
    model = EdgeModel(kind=args.edge_kind, mean_degree=args.mean_degree, k=args.ws_k,
                      rewire_prob=args.ws_beta, edges=edges,
                      both_orientations=args.both_orientations)
    params = SimParams(**{f.name: getattr(args, f.name) for f in fields(SimParams)})
    network = simulate(params, node_count=args.node_count, edge_model=model)
    codes = dyad_codes(network)
    print(f"simulated {network.node_count} nodes, {codes.size} dyads")
    if args.out_dyads:
        _write_dyad_csv(network, codes, args.item_id, args.out_dyads)
        print(f"wrote {args.out_dyads}")
    if not args.evaluate:
        return 0
    return _evaluate([(args.item_id, args.item_id, tally(codes), 0)], args)


def _cmd_chart(args) -> int:
    reports = load_report_json(args.results)
    emit_bubble_chart(reports, args.out, method=args.chart_method, alpha=args.alpha)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "evaluate": _cmd_evaluate,
    "table": _cmd_table,
    "simulate": _cmd_simulate,
    "chart": _cmd_chart,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:  # parsed again over the file's defaults
            _set_config_defaults(parser, args.command, _load_config_file(args.config))
            args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except NumericalIntegrityError as exc:
        print(f"numerical integrity failure: {exc}", file=sys.stderr)
        code = 2
    finally:  # also on argparse's exit after --version or --help
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            _silence_stdout()
    return code


if __name__ == "__main__":
    sys.exit(main())
