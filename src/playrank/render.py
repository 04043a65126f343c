"""Text output: standings tables, CSV/JSON reports and matrix dumps.

IPMs are rounded to hundredths only here; CSV and JSON carry the full
precision values alongside.  Matrix dumps print one row per line with a
leading ``# nodes:`` comment, integers for adjacency counts and exact
``p/q`` fractions for the stochastic forms (the column-stochastic form is
the transpose of the row-stochastic one).
"""

from __future__ import annotations

import io
import json
from json.encoder import encode_basestring_ascii as _json_str

from .metrics import CrossGameTable, IpmReport, PlayerIpm, TeamAggregate
from .model import GOAL
from .ranking import PlayDigraph

REPORT_FORMATS = ("table", "csv", "json")
COMPARISON_FORMATS = ("table", "csv")
MATRIX_FORMS = ("adjacency", "row-stochastic", "column-stochastic")

# A player object of a JSON report as json.dumps(indent=2) lays it out, and
# json's spelling of the non-finite floats.
_JSON_PLAYER = "    {\n" + ",\n".join(f'      "{f}": %s' for f in PlayerIpm._fields) + "\n    }"
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values) -> list | map:
    reprs = list(map(float.__repr__, values))
    return reprs if _NONFINITE.keys().isdisjoint(reprs) else map(_NONFINITE.get, reprs, reprs)


def _team_lines(aggs: tuple[TeamAggregate, TeamAggregate]) -> list[str]:
    return [f"{t.team}: AIPM {t.aipm:.2f}, starter AIPM "
            + ("n/a" if t.starter_aipm is None else f"{t.starter_aipm:.2f}")
            + (f" ({t.label})" if t.label else "") for t in aggs]


def render_report(report: IpmReport, aggs: tuple[TeamAggregate, TeamAggregate] | None,
                  fmt: str = "table", solver_gap: float | None = None) -> str:
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
        import csv  # imported on first use, to keep start-up short

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["player", "team", "ipm", "ipm_full", "rank"])
        for p in report.standings:
            w.writerow([p.player, p.team, f"{p.ipm:.2f}", repr(p.ipm), repr(p.rank)])
        return buf.getvalue()

    if fmt == "json":
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
            objs = map(_JSON_PLAYER.__mod__, zip(
                map(_json_str, player), map(_json_str, name), map(_json_str, team),
                map(("false", "true").__getitem__, starter), _json_floats(rank),
                _json_floats(ipm)))
            text = text.replace('"players": []', '"players": [\n' + ",\n".join(objs) + "\n  ]", 1)
        return text + "\n"

    raise ValueError(f"unknown report format {fmt!r} (use one of {REPORT_FORMATS})")


def _node_label(node) -> str:
    return "GOAL" if node is GOAL else str(node)


def render_matrix(graph: PlayDigraph, form: str = "adjacency") -> str:
    header = "# nodes: " + " ".join(_node_label(n) for n in graph.nodes)
    if form == "adjacency":
        rows = [" ".join(map(str, row)) for row in graph.counts.tolist()]
    elif form in ("row-stochastic", "column-stochastic"):
        rational = graph.rational
        if form == "column-stochastic":
            rational = tuple(zip(*rational))
        rows = [" ".join(str(c) for c in row) for row in rational]
    else:
        raise ValueError(f"unknown matrix form {form!r} (use one of {MATRIX_FORMS})")
    return header + "\n" + "\n".join(rows) + "\n"


def render_comparison(table: CrossGameTable, fmt: str = "table") -> str:
    header = ["Player", *table.game_ids, "Mean"]
    gids = table.game_ids
    rows = [[r.player, *["" if v is None else f"{v:.2f}" for v in map(r.ipms.__getitem__, gids)],
             f"{r.mean:.2f}"] for r in table.rows]
    if fmt == "table":
        return "\n".join(map(" | ".join, [header, *rows])) + "\n"
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow([h.lower() for h in header])
        w.writerows(rows)
        return buf.getvalue()
    raise ValueError(f"unknown comparison format {fmt!r} (use one of {COMPARISON_FORMATS})")
