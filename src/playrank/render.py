"""Text output: standings tables, CSV/JSON reports and matrix dumps.

IPMs are rounded to hundredths only here; CSV and JSON carry the full
precision values alongside.  Matrix dumps print one row per line with a
leading ``# nodes:`` comment, integers for adjacency counts and exact
``p/q`` fractions for the stochastic forms (the column-stochastic form is
the transpose of the row-stochastic one).
"""

from __future__ import annotations

import io

import numpy as np

from .metrics import CrossGameTable, IpmReport, PlayerIpm, TeamAggregate
from .model import GOAL
from .ranking import PlayDigraph

REPORT_FORMATS = ("table", "csv", "json")
COMPARISON_FORMATS = ("table", "csv")
MATRIX_FORMS = ("adjacency", "row-stochastic", "column-stochastic")

# json's spelling of the non-finite floats
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values) -> list | map:
    reprs = list(map(float.__repr__, values))
    return reprs if _NONFINITE.keys().isdisjoint(reprs) else map(_NONFINITE.get, reprs, reprs)


def csv_text(rows) -> str:
    """``rows`` as CSV text, one line each."""
    import csv  # imported on first use, to keep start-up short
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _team_lines(aggs: tuple[TeamAggregate, TeamAggregate]) -> list[str]:
    return [f"{t.team}: AIPM {t.aipm:.2f}, starter AIPM "
            + ("n/a" if t.starter_aipm is None else f"{t.starter_aipm:.2f}")
            + (f" ({t.label})" if t.label else "") for t in aggs]


def render_report(report: IpmReport, aggs: tuple[TeamAggregate, TeamAggregate] | None,
                  fmt: str = "table", solver_gap: float | None = None) -> str:
    """``report`` and, unless ``aggs`` is None, its two team aggregates in
    ``fmt``.  A report that is no IpmReport, or aggregates that are not a
    tuple of TeamAggregates, is a TypeError; a tuple of other than two, a
    ValueError."""
    if not isinstance(report, IpmReport):
        raise TypeError(f"report must be an IpmReport, not {type(report).__name__}")
    if aggs is not None:
        if not isinstance(aggs, tuple):
            raise TypeError(f"aggs must be None or a pair of TeamAggregates, "
                            f"not {type(aggs).__name__}")
        if not all(isinstance(t, TeamAggregate) for t in aggs):
            raise TypeError(f"aggs must be TeamAggregates, not {[type(t).__name__ for t in aggs]}")
        if len(aggs) != 2:
            raise ValueError(f"aggs must be a pair of TeamAggregates, got {len(aggs)}")
    if fmt == "table":
        lines = ["Player | Team | IPM"]
        lines += [f"{p.player} | {p.team} | {p.ipm:.2f}" for p in report.standings]
        if aggs is not None:
            lines.append("")
            lines += _team_lines(aggs)
        if solver_gap is not None:
            lines.append(f"solver cross-check: max discrepancy {solver_gap:.3e}")
        return "\n".join(lines) + "\n"

    if fmt == "csv":
        return csv_text([["player", "team", "ipm", "ipm_full", "rank"], *(
            [p.player, p.team, f"{p.ipm:.2f}", repr(p.ipm), repr(p.rank)]
            for p in report.standings)])

    if fmt == "json":
        import json  # imported on first use, like csv
        from json.encoder import encode_basestring_ascii as json_str

        from .gamelog_json import fill_array
        # the report's fields, with its players in standings order laid out by column
        doc = {**report._asdict(), "players": []}
        del doc["standings"]
        if solver_gap is not None:
            doc["solver_gap"] = solver_gap
        if aggs is not None:
            doc["teams"] = [t._asdict() for t in aggs]
        text = json.dumps(doc, indent=2)
        if report.standings:
            player, name, team, starter, rank, ipm = zip(*report.standings)
            text = fill_array(text, "players", [[(f, "{}") for f in PlayerIpm._fields]],
                              [0] * len(player), map(json_str, player), map(json_str, name),
                              map(json_str, team), map(("false", "true").__getitem__, starter),
                              _json_floats(rank), _json_floats(ipm))
        return text + "\n"

    raise ValueError(f"unknown report format {fmt!r} (use one of {REPORT_FORMATS})")


def render_matrix(graph: PlayDigraph, form: str = "adjacency") -> str:
    if not isinstance(graph, PlayDigraph):
        raise TypeError(f"render_matrix needs a PlayDigraph, not {type(graph).__name__}")
    if form not in MATRIX_FORMS:
        raise ValueError(f"unknown matrix form {form!r} (use one of {MATRIX_FORMS})")
    # a cell is its arc's weight, over 1 or its row's out-degree, reduced: p/q, or p if q is 1
    k = len(graph.nodes)
    src, dst, num = graph.src, graph.dst, graph.weight
    den = np.ones_like(num) if form == "adjacency" else graph.row_sums[src]
    gcd = np.gcd(num, den)
    ends = (dst, src) if form == "column-stochastic" else (src, dst)
    rows = [["0"] * k for _ in range(k)]
    for i, j, p, q in zip(*map(np.ndarray.tolist, (*ends, num // gcd, den // gcd))):
        rows[i][j] = f"{p}/{q}" if q != 1 else str(p)
    header = "# nodes: " + " ".join("GOAL" if n is GOAL else str(n) for n in graph.nodes)
    return header + "\n" + "\n".join(map(" ".join, rows)) + "\n"


def render_comparison(table: CrossGameTable, fmt: str = "table") -> str:
    if not isinstance(table, CrossGameTable):
        raise TypeError(f"render_comparison needs a CrossGameTable, not {type(table).__name__}")
    gids = table.game_ids
    rows = [[r.player, *["" if v is None else f"{v:.2f}" for v in map(r.ipms.__getitem__, gids)],
             f"{r.mean:.2f}"] for r in table.rows]
    if fmt == "table":
        return "\n".join(map(" | ".join, [["Player", *gids, "Mean"], *rows])) + "\n"
    if fmt == "csv":  # the game ids keep their case
        return csv_text([["player", *gids, "mean"], *rows])
    raise ValueError(f"unknown comparison format {fmt!r} (use one of {COMPARISON_FORMATS})")
