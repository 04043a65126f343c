import json
import math
import re
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from playrank.metrics import (
    IpmReport, PlayerIpm, TeamAggregate, aggregates,
    compare_games, compute_ipm,
)
from playrank.model import GOAL, GameLog, GameMetadata, Roster, RosterPlayer, Sport
from playrank.pipeline import analyze_game, build_digraph
from playrank.ranking import (
    CorruptedGraphError, PlayDigraph, stationary_direct, to_transition,
)
from playrank.render import (
    COMPARISON_FORMATS, REPORT_FORMATS, render_comparison, render_matrix, render_report,
)

from golden import DEMO_ADJACENCY, DEMO_COLUMN_STOCHASTIC, build_demo_log
from propositions import exact_rows


def _report(log, metadata=None):
    rank = stationary_direct(to_transition(build_digraph(log)))
    report = compute_ipm(rank, log.teams)
    return report, aggregates(report, metadata)


def _json_oracle(report, aggs, solver_gap=None):
    """The JSON report as the stdlib encoder writes it, byte for byte."""
    doc = {**report._asdict(), "players": [p._asdict() for p in report.standings]}
    del doc["standings"]
    if solver_gap is not None:
        doc["solver_gap"] = solver_gap
    if aggs is not None:
        doc["teams"] = [t._asdict() for t in aggs]
    return json.dumps(doc, indent=2) + "\n"


def test_table_header_and_first_row():
    report, aggs = _report(build_demo_log(), GameMetadata(final_score="3-2"))
    lines = render_report(report, aggs, "table").splitlines()
    assert lines[0] == "Player | Team | IPM"
    assert lines[1] == "C | Reds | 64.66"
    assert "Reds: AIPM 58.61, starter AIPM n/a (winner)" in lines
    assert "Blues: AIPM 41.39, starter AIPM n/a (loser)" in lines


def test_table_solver_gap_line():
    report, aggs = _report(build_demo_log())
    out = render_report(report, aggs, "table", solver_gap=3.2e-13)
    assert "solver cross-check: max discrepancy 3.200e-13" in out


def test_csv_columns_and_full_precision():
    log = GameLog(Sport.SOCCER, (
        Roster("X", (RosterPlayer("x1"), RosterPlayer("x2"))),
        Roster("Y", (RosterPlayer("y1"), RosterPlayer("y2"))),
    ), ())
    report, aggs = _report(log)
    lines = render_report(report, aggs, "csv").splitlines()
    assert lines[0] == "player,team,ipm,ipm_full,rank"
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2] == "50.00"
        assert float(cells[3]) == pytest.approx(50.0, abs=1e-9)
        assert float(cells[4]) > 0


def test_csv_quotes_awkward_fields():
    log = GameLog(Sport.SOCCER, (
        Roster("X", (RosterPlayer("Smith, J"),)),
        Roster("Y", (RosterPlayer("y1"),)),
    ), ())
    report, aggs = _report(log)
    out = render_report(report, aggs, "csv")
    assert '"Smith, J"' in out


def test_json_report_fields():
    report, aggs = _report(build_demo_log(), GameMetadata(final_score="3-2"))
    doc = json.loads(render_report(report, aggs, "json", solver_gap=1e-12))
    assert doc["n"] == 6
    assert doc["method"] == "direct"
    assert 0 < doc["goal_rank"] < 1
    assert doc["residual"] <= 1e-10
    assert doc["solver_gap"] == 1e-12
    assert [p["player"] for p in doc["players"]][:2] == ["C", "F"]
    assert doc["players"][0]["ipm"] == pytest.approx(64.657, abs=1e-3)
    assert [t["label"] for t in doc["teams"]] == ["winner", "loser"]
    assert doc["iterations"] == 0


@pytest.mark.parametrize("solver, max_iters, method", [
    ("power", 1000, "power"), ("both", 1000, "power"), ("direct", 1000, "direct"),
    ("power", 1, "direct"),  # power iteration runs out and the direct solve takes over
])
def test_json_report_carries_power_iterations(solver, max_iters, method):
    a = analyze_game(build_demo_log(), solver=solver, max_iters=max_iters)
    doc = json.loads(render_report(a.report, a.teams, "json", solver_gap=a.solver_gap))
    assert doc["method"] == method
    assert doc["iterations"] == a.rank.iterations
    assert (doc["iterations"] > 1) == (method == "power")


def test_json_report_matches_stdlib_encoder():
    report, aggs = _report(build_demo_log(), GameMetadata(final_score="3-2"))
    for gap in (None, 2.5e-13):
        for teams in (None, aggs):
            assert render_report(report, teams, "json", solver_gap=gap) == \
                _json_oracle(report, teams, gap)
    # json.dumps spells the non-finite floats NaN, Infinity and -Infinity
    odd = report._replace(standings=(
        report.standings[0]._replace(rank=math.nan, ipm=math.inf),
        report.standings[1]._replace(rank=-math.inf, ipm=-0.0),
        *report.standings[2:]))
    text = render_report(odd, aggs, "json")
    assert text == _json_oracle(odd, aggs)
    assert '"rank": NaN' in text and '"ipm": Infinity' in text and '"rank": -Infinity' in text
    empty = report._replace(standings=())
    assert render_report(empty, None, "json") == _json_oracle(empty, None)


awkward_text = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x1f\x7f", "\n\t\r", "\u00e9\u00df", "\u2028", "\U0001f600",
     "\ud800", '"players": []'])
json_floats = st.floats() | st.sampled_from([5e-324, 1e16, 0.1, -0.0, 1e-7, 1e22])
players = st.builds(PlayerIpm, awkward_text, awkward_text, awkward_text, st.booleans(),
                    json_floats, json_floats)
team_aggs = st.builds(
    TeamAggregate, awkward_text, st.integers(0, 400), json_floats,
    st.none() | json_floats, st.sampled_from([None, "winner", "loser"]))


@settings(max_examples=100, deadline=None)
@given(
    standings=st.lists(players, max_size=12),
    aggs=st.none() | st.tuples(team_aggs, team_aggs),
    solver_gap=st.none() | json_floats,
    method=st.sampled_from(["power", "direct"]),
    iterations=st.integers(0, 1000),
)
def test_json_report_bytes_equal_stdlib_encoder(standings, aggs, solver_gap, method,
                                                iterations):
    report = IpmReport(n=len(standings), goal_rank=0.25, residual=1e-13, method=method,
                       players=tuple(reversed(standings)), standings=tuple(standings),
                       iterations=iterations)
    assert render_report(report, aggs, "json", solver_gap=solver_gap) == \
        _json_oracle(report, aggs, solver_gap)


def test_unknown_format_rejected():
    report, aggs = _report(build_demo_log())
    with pytest.raises(ValueError):
        render_report(report, aggs, "xml")
    with pytest.raises(ValueError):
        render_matrix(build_digraph(build_demo_log()), "hermitian")
    with pytest.raises(ValueError):
        render_comparison(compare_games({"g": report}), "xml")


@pytest.mark.parametrize("args, error, message", [
    (lambda r, a: (None, a), TypeError, "report must be an IpmReport, not NoneType"),
    (lambda r, a: (r._asdict(), a), TypeError, "report must be an IpmReport, not dict"),
    (lambda r, a: (r, (1, 2)), TypeError, r"aggs must be TeamAggregates, not \['int', 'int'\]"),
    (lambda r, a: (r, list(a)), TypeError, "aggs must be None or a pair of TeamAggregates, "
                                           "not list"),
    (lambda r, a: (r, a[0]), TypeError, r"aggs must be TeamAggregates, not \['str', 'int'"),
    (lambda r, a: (r, ()), ValueError, "aggs must be a pair of TeamAggregates, got 0"),
    (lambda r, a: (r, a[:1]), ValueError, "aggs must be a pair of TeamAggregates, got 1"),
    (lambda r, a: (r, a + a[:1]), ValueError, "aggs must be a pair of TeamAggregates, got 3"),
], ids=["none-report", "dict-report", "int-pair", "list", "one-aggregate", "empty", "one",
        "three"])
def test_render_report_refuses_wrong_arguments(args, error, message):
    report, aggs = _report(build_demo_log())
    for fmt in REPORT_FORMATS:
        with pytest.raises(error, match=message):
            render_report(*args(report, aggs), fmt)


def test_comparison_error_names_the_comparison_formats():
    table = compare_games({"g": _report(build_demo_log())[0]})
    assert all(render_comparison(table, fmt) for fmt in COMPARISON_FORMATS)
    with pytest.raises(ValueError, match=re.escape(f"(use one of {COMPARISON_FORMATS})")):
        render_comparison(table, "json")


def test_adjacency_dump_matches_reference():
    out = render_matrix(build_digraph(build_demo_log()), "adjacency")
    lines = out.splitlines()
    assert lines[0] == "# nodes: A B C D E F GOAL"
    got = [[int(x) for x in line.split()] for line in lines[1:]]
    assert got == DEMO_ADJACENCY


def test_column_stochastic_dump_is_exact():
    out = render_matrix(build_digraph(build_demo_log()), "column-stochastic")
    rows = [[Fraction(tok) for tok in line.split()]
            for line in out.splitlines()[1:]]
    assert rows == [list(r) for r in DEMO_COLUMN_STOCHASTIC]
    assert out.splitlines()[1].split()[1] == "2/7"


arc_lists = st.integers(1, 6).flatmap(lambda k: st.tuples(st.just(k), st.lists(
    st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.integers(-3, 5)), max_size=30)))


@settings(max_examples=200, deadline=None)
@given(arcs=arc_lists)
def test_matrix_dumps_are_the_counts_and_the_exact_rows(arcs):
    # any arcs: repeated, out of order, zero or negative weights (a digraph
    # built by hand); each cell as str writes its int or its Fraction, and a
    # chain with a negative weight or a node without out-arcs is refused
    k, arcs = arcs
    src, dst, weight = np.array(arcs, dtype=np.int64).reshape(-1, 3).T
    g = PlayDigraph((*(f"n{i}" for i in range(k - 1)), GOAL), src, dst, weight)

    def dump(form):
        lines = render_matrix(g, form).splitlines()
        assert lines[0] == "# nodes: " + " ".join(g.nodes[:-1] + ("GOAL",))
        return lines[1:]

    assert dump("adjacency") == [" ".join(map(str, row)) for row in g.counts.tolist()]
    if (weight < 0).any() or not np.bincount(src, weight, k).all():
        for form in ("row-stochastic", "column-stochastic"):
            with pytest.raises(CorruptedGraphError):
                dump(form)
        return
    rows = exact_rows(g)
    assert dump("row-stochastic") == [" ".join(map(str, row)) for row in rows]
    assert dump("column-stochastic") == [" ".join(map(str, row)) for row in zip(*rows)]


def test_row_stochastic_goal_row_uniform():
    rosters = (
        Roster("X", tuple(RosterPlayer(f"x{i}") for i in range(3))),
        Roster("Y", tuple(RosterPlayer(f"y{i}") for i in range(3))),
    )
    out = render_matrix(build_digraph(GameLog(Sport.SOCCER, rosters, ())), "row-stochastic")
    assert out.splitlines()[-1].split() == ["1/7"] * 7


def test_comparison_rendering_has_empty_cells():
    report, _ = _report(build_demo_log())
    small = GameLog(Sport.BASKETBALL, (
        Roster("Reds", (RosterPlayer("C"),)),
        Roster("Blues", (RosterPlayer("Z"),)),
    ), ())
    report2, _ = _report(small)
    table = compare_games({"one": report, "two": report2})
    text = render_comparison(table, "table")
    assert text.splitlines()[0] == "Player | one | two | Mean"
    c_line = next(l for l in text.splitlines() if l.startswith("C |"))
    assert c_line.count("|") == 3
    csv_text = render_comparison(table, "csv")
    a_line = next(l for l in csv_text.splitlines() if l.startswith("A,"))
    assert ",," in a_line  # absent from game two
