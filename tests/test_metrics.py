import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from playrank.metrics import (
    CrossGameRow, CrossGameTable, DegenerateGoalRankError, IpmReport,
    PlayerIpm, aggregates, compare_games, compute_ipm,
)
from playrank.model import GOAL, GameLog, GameMetadata, Pass, Roster, RosterPlayer, Score, Sport
from playrank.pipeline import analyze_game, build_digraph
from playrank.ranking import RankVector, stationary_direct, to_transition
from playrank.synth import generate_random_game

from golden import DEMO_IPM_EXACT, build_demo_log
from propositions import check_proposition_bounds

games = st.builds(
    generate_random_game,
    sport=st.sampled_from(list(Sport)),
    n_players=st.integers(min_value=3, max_value=20),
    n_events=st.integers(min_value=0, max_value=120),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


def _report_for(log):
    rank = stationary_direct(to_transition(build_digraph(log)))
    return compute_ipm(rank, log.teams)


def _rosters(n1, n2):
    return (
        Roster("Home", tuple(RosterPlayer(f"H{i}") for i in range(1, n1 + 1))),
        Roster("Away", tuple(RosterPlayer(f"A{i}") for i in range(1, n2 + 1))),
    )


# --- compute_ipm -----------------------------------------------------------

def test_demo_ipms_match_exact_rational_solution():
    report = _report_for(build_demo_log())
    by_id = {p.player: p.ipm for p in report.players}
    for pid, exact in DEMO_IPM_EXACT.items():
        assert abs(by_id[pid] - float(exact)) <= 1e-9
    assert [p.player for p in report.standings] == ["C", "F", "A", "B", "D", "E"]


def test_no_event_game_everyone_scores_fifty():
    for n1, n2 in [(1, 1), (3, 3), (7, 4)]:
        log = GameLog(Sport.SOCCER, _rosters(n1, n2), ())
        report = _report_for(log)
        n = n1 + n2
        assert abs(report.goal_rank - (n + 1) / (2 * n + 1)) <= 1e-12
        for p in report.players:
            assert abs(p.ipm - 50.0) <= 1e-9


def test_two_scorer_sixty_forty():
    log = GameLog(Sport.BASKETBALL, _rosters(1, 1),
                  (Score("H1", 1), Score("H1", 1), Score("A1", 1)))
    report = _report_for(log)
    by_id = {p.player: p.ipm for p in report.players}
    assert abs(by_id["H1"] - 60.0) <= 1e-9
    assert abs(by_id["A1"] - 40.0) <= 1e-9


@pytest.mark.parametrize("g1, g2", [(1, 0), (2, 1), (5, 4), (10, 0), (10, 9)])
def test_two_scorer_ordering(g1, g2):
    events = tuple(Score("H1", 1) for _ in range(g1)) + tuple(Score("A1", 1) for _ in range(g2))
    report = _report_for(GameLog(Sport.BASKETBALL, _rosters(1, 1), events))
    by_id = {p.player: p.ipm for p in report.players}
    assert by_id["H1"] > by_id["A1"]


def test_standings_tiebreak_follows_team_then_roster_order():
    report = _report_for(GameLog(Sport.SOCCER, _rosters(2, 2), ()))
    # All IPMs are exactly 50; order must fall back to roster order.
    assert [p.player for p in report.standings] == ["H1", "H2", "A1", "A2"]


def _oracle_standings(report):
    """IPM descending, ties in roster order: the sort the standings follow."""
    ipm = [p.ipm for p in report.players]
    return [report.players[i] for i in sorted(range(report.n), key=lambda i: (-ipm[i], i))]


@pytest.mark.parametrize("solver", ["power", "direct"])
def test_mirrored_teams_tie_in_roster_order(solver):
    events = []
    for side in "HA":
        p1, p2, p3 = (f"{side}{i}" for i in (1, 2, 3))
        events += [Pass(p1, p2), Pass(p2, p3), Pass(p1, p3), Score(p3, 2), Pass(p2, p1)]
    log = GameLog(Sport.BASKETBALL, _rosters(3, 3), events)
    report = analyze_game(log, solver=solver).report
    assert len({p.ipm for p in report.players}) < report.n  # exact ties
    assert list(report.standings) == _oracle_standings(report)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_power_and_direct_print_the_same_ipms_in_orders_the_bits_fix(seed):
    # Players whose IPMs are equal in exact arithmetic may differ in their
    # last bits, and differently per solver: the standings keep roster order
    # only among bit-equal IPMs, so the two tables may order such players
    # differently (these games, with many players in few events, do), but
    # they print the same IPM for every player.
    log = generate_random_game(Sport.BASKETBALL, 350, 1_000, seed)
    reports = [analyze_game(log, solver).report for solver in ("power", "direct")]
    printed = [sorted((p.player, f"{p.ipm:.2f}") for p in r.standings) for r in reports]
    assert printed[0] == printed[1]
    for report in reports:
        assert list(report.standings) == _oracle_standings(report)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_standings_order_with_repeated_ranks(data):
    n1, n2 = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    pool = data.draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=3))
    values = data.draw(st.lists(st.sampled_from(pool), min_size=n1 + n2 + 1,
                                max_size=n1 + n2 + 1))
    rosters = _rosters(n1, n2)
    nodes = (*(p.id for r in rosters for p in r.players), GOAL)
    v = np.array(values) / sum(values)
    report = compute_ipm(RankVector(nodes, v, 0.0, "direct"), rosters)
    assert list(report.standings) == _oracle_standings(report)


def test_degenerate_goal_rank_rejected():
    rank = RankVector(("p", "q", GOAL), np.array([0.0, 0.0, 1.0]),
                      residual=0.0, method="direct")
    with pytest.raises(DegenerateGoalRankError):
        compute_ipm(rank, _rosters(1, 1))


def test_rosters_that_do_not_match_the_vector_rejected():
    rank = stationary_direct(to_transition(build_digraph(
        GameLog(Sport.SOCCER, _rosters(2, 2), ()))))
    with pytest.raises(ValueError, match="rank vector has 4 player entries, rosters have 2"):
        compute_ipm(rank, _rosters(1, 1))


def test_scaling_invariance():
    log = build_demo_log()
    rank = stationary_direct(to_transition(build_digraph(log)))
    base = {p.player: p.ipm for p in compute_ipm(rank, log.teams).players}
    for c in (7.3, 0.004, 123456.0):
        scaled = rank.values * c
        scaled = scaled / scaled.sum()
        v = RankVector(rank.nodes, scaled, rank.residual, rank.method)
        again = {p.player: p.ipm for p in compute_ipm(v, log.teams).players}
        for pid in base:
            assert abs(base[pid] - again[pid]) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(log=games)
def test_ipm_sum_mean_and_min_invariants(log):
    report = _report_for(log)
    n = report.n
    total = sum(p.ipm for p in report.players)
    assert abs(total - 50.0 * n) <= 1e-8
    assert abs(total / n - 50.0) <= 1e-9
    assert min(p.ipm for p in report.players) <= 50.0 + 1e-9
    assert all(p.ipm >= 0 for p in report.players)


# --- aggregates ------------------------------------------------------------

def test_demo_aggregates_with_score_metadata():
    report = _report_for(build_demo_log())
    aggs = aggregates(report, GameMetadata(final_score="3-2"))
    reds, blues = aggs
    assert reds.team == "Reds" and blues.team == "Blues"
    assert abs(reds.aipm - 58.61) <= 0.005
    assert abs(blues.aipm - 41.39) <= 0.005
    assert reds.label == "winner" and blues.label == "loser"
    # Sizes weight the averages back to the global mean of 50.
    n = reds.size + blues.size
    assert abs((reds.size * reds.aipm + blues.size * blues.aipm) / n - 50.0) <= 1e-8


def test_aggregates_without_metadata_or_starters():
    report = _report_for(build_demo_log())
    aggs = aggregates(report, None)
    assert all(t.label is None for t in aggs)
    assert all(t.starter_aipm is None for t in aggs)  # nobody designated


def test_aggregates_with_starters():
    log = build_demo_log()
    teams = tuple(
        Roster(t.name, tuple(
            RosterPlayer(p.id, p.name, p.id in {"A", "B", "D", "E"})
            for p in t.players))
        for t in log.teams
    )
    log = GameLog(log.sport, teams, log.events)
    report = _report_for(log)
    aggs = aggregates(report, GameMetadata(final_score="3-3"))
    reds, blues = aggs
    by_id = {p.player: p.ipm for p in report.players}
    assert abs(reds.starter_aipm - (by_id["A"] + by_id["B"]) / 2) <= 1e-12
    assert abs(blues.starter_aipm - (by_id["D"] + by_id["E"]) / 2) <= 1e-12
    assert reds.label is None and blues.label is None  # drawn score


@pytest.mark.parametrize("rosters", [
    (Roster("Same", (RosterPlayer("H1"),)), Roster("Same", (RosterPlayer("A1"), RosterPlayer("A2")))),
    _rosters(0, 3),
], ids=["one-team-name", "empty-roster"])
def test_aggregates_needs_two_team_runs(rosters):
    # validate_game rejects both games; a library caller may skip it
    report = _report_for(GameLog(Sport.SOCCER, rosters, ()))
    with pytest.raises(ValueError, match="1 team runs, not 2"):
        aggregates(report)


def test_equal_ipm_game_has_balanced_aipm():
    report = _report_for(GameLog(Sport.HOCKEY, _rosters(3, 3), ()))
    aggs = aggregates(report, GameMetadata(final_score="not a score"))
    assert all(abs(t.aipm - 50.0) <= 1e-9 for t in aggs)
    assert all(t.label is None for t in aggs)


# --- proposition bounds ----------------------------------------------------

def test_demo_bounds_with_designated_starters():
    report = _report_for(build_demo_log())
    check = check_proposition_bounds(report, starters={"A", "B", "D", "E"})
    assert check.starter_gap.applicable and check.starter_gap.holds
    assert check.pairwise_gap.applicable and check.pairwise_gap.holds
    assert check.starter_gap.margin >= 0
    assert check.pairwise_gap.margin >= 0
    assert abs(check.pairwise_gap.bound - 25 * 6 / 4) <= 1e-12


def test_all_fifty_game_bounds_are_tight():
    report = _report_for(GameLog(Sport.SOCCER, _rosters(2, 2), ()))
    check = check_proposition_bounds(report, starters={"H1", "A1"})
    assert abs(check.starter_gap.bound) <= 1e-9     # R == 50k
    assert abs(check.starter_gap.observed) <= 1e-9  # every gap is zero
    assert abs(check.pairwise_gap.observed) <= 1e-9


def test_bounds_not_applicable_cases():
    report = _report_for(GameLog(Sport.SOCCER, _rosters(1, 1), ()))
    check = check_proposition_bounds(report, starters=set())
    assert not check.starter_gap.applicable      # k == 0
    assert not check.pairwise_gap.applicable     # n == 2
    assert check.starter_gap.holds is None
    all_start = check_proposition_bounds(report, starters={"H1", "A1"})
    assert not all_start.starter_gap.applicable  # k == n


def test_bounds_unknown_starter_rejected():
    report = _report_for(GameLog(Sport.SOCCER, _rosters(1, 1), ()))
    with pytest.raises(KeyError):
        check_proposition_bounds(report, starters={"nobody"})


def test_bounds_take_the_roster_starters_unless_given_a_list():
    teams = tuple(Roster(name, (RosterPlayer(f"{name}1", starter=True), RosterPlayer(f"{name}2")))
                  for name in ("H", "A"))
    report = _report_for(GameLog(Sport.SOCCER, teams, (Score("H1"), Score("H1"), Score("A2"))))
    check = check_proposition_bounds(report)
    assert check.starter_gap.applicable
    assert check == check_proposition_bounds(report, starters=["H1", "A1"])
    assert check != check_proposition_bounds(report, starters=["H1"])
    with pytest.raises(KeyError, match=r"unknown starter ids: \['ghost'\]"):
        check_proposition_bounds(report, starters=["H1", "ghost"])


@settings(max_examples=40, deadline=None)
@given(log=games, seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_bounds_hold_for_random_subsets(log, seed):
    report = _report_for(log)
    rng = random.Random(seed)
    ids = [p.player for p in report.players]
    for _ in range(5):
        k = rng.randint(1, len(ids) - 1)
        check = check_proposition_bounds(report, starters=rng.sample(ids, k))
        assert check.starter_gap.holds
        assert check.pairwise_gap.holds


# --- cross-game comparison --------------------------------------------------

def test_compare_two_games_sharing_a_player():
    log1 = build_demo_log()
    reds = Roster("Reds", (RosterPlayer("C"), RosterPlayer("X")))
    blues = Roster("Blues", (RosterPlayer("Y"), RosterPlayer("Z")))
    log2 = GameLog(Sport.BASKETBALL, (reds, blues), (Score("C", 2),))
    table = compare_games({"g1": _report_for(log1), "g2": _report_for(log2)})
    row = next(r for r in table.rows if r.player == "C")
    assert row.ipms["g1"] is not None and row.ipms["g2"] is not None
    assert abs(row.mean - (row.ipms["g1"] + row.ipms["g2"]) / 2) <= 1e-12
    # Players from one game only keep an empty cell, not zero.
    x = next(r for r in table.rows if r.player == "X")
    assert x.ipms["g1"] is None and x.ipms["g2"] is not None


def test_compare_single_report_is_the_standings():
    report = _report_for(build_demo_log())
    table = compare_games({"only": report})
    assert [r.player for r in table.rows] == [p.player for p in report.standings]
    assert all(r.mean == r.ipms["only"] for r in table.rows)


def test_compare_disjoint_rosters_unions_rows():
    a = _report_for(generate_random_game(Sport.SOCCER, 6, 40, seed=1))
    blues = Roster("Q", (RosterPlayer("q1"), RosterPlayer("q2")))
    reds = Roster("R", (RosterPlayer("r1"), RosterPlayer("r2")))
    b = _report_for(GameLog(Sport.SOCCER, (blues, reds), ()))
    table = compare_games({"a": a, "b": b})
    assert len(table.rows) == a.n + b.n


def test_compare_requires_a_report():
    with pytest.raises(ValueError):
        compare_games({})


def _reference_compare(reports):
    """The O(P^2 G) scan compare_games replaced: one pass over a report's
    players per (player, game) cell, first occurrence wins."""
    player_order = []
    for report in reports.values():
        for p in report.standings:
            if p.player not in player_order:
                player_order.append(p.player)
    rows = []
    for pid in player_order:
        ipms = {}
        for gid, report in reports.items():
            hit = next((p for p in report.players if p.player == pid), None)
            ipms[gid] = hit.ipm if hit is not None else None
        present = [v for v in ipms.values() if v is not None]
        rows.append(CrossGameRow(pid, ipms, sum(present) / len(present)))
    rows.sort(key=lambda r: (-r.mean, r.player))
    return CrossGameTable(game_ids=tuple(reports), rows=tuple(rows))


def _fake_report(rng, pool):
    """A report over a random subset of ``pool`` with IPMs on a coarse grid,
    so many players tie on their cross-game mean."""
    ids = rng.sample(pool, rng.randint(100, len(pool)))
    players = [PlayerIpm(pid, pid, "T", False, 0.0, rng.choice((40.0, 50.0, 60.5)))
               for pid in ids]
    players.append(PlayerIpm(ids[0], ids[0], "T", False, 0.0, 99.0))  # repeated id
    order = sorted(range(len(players)), key=lambda i: (-players[i].ipm, i))
    return IpmReport(n=len(players), goal_rank=0.5, residual=0.0, method="direct",
                     players=tuple(players),
                     standings=tuple(players[i] for i in order))


def test_compare_matches_reference_scan_on_wide_rosters():
    rng = random.Random(3)
    pool = [f"p{i:03d}" for i in range(150)]
    reports = {f"g{g:02d}": _fake_report(rng, pool) for g in range(24)}
    table = compare_games(reports)
    reference = _reference_compare(reports)
    assert table == reference
    assert [list(r.ipms) for r in table.rows] == [list(r.ipms) for r in reference.rows]
    assert any(None in r.ipms.values() for r in table.rows)
    means = [r.mean for r in table.rows]
    assert len(set(means)) < len(means)  # tied means exercise the id tiebreak


def _league_round(rng, teams=24, size=12, games=24):
    """A season-shaped round: each game pairs two teams of a 24-team pool,
    so a player has an IPM in about 2 of the 24 games."""
    pool = [[f"t{t:02d}p{i:02d}" for i in range(size)] for t in range(teams)]
    reports = {}
    for g in range(games):
        home, away = rng.sample(range(teams), 2)
        players = tuple(PlayerIpm(pid, pid, f"T{t}", False, 0.0, rng.uniform(5.0, 150.0))
                        for t in (home, away) for pid in pool[t])
        reports[f"r1g{g:02d}"] = IpmReport(
            n=len(players), goal_rank=0.5, residual=0.0, method="power", players=players,
            standings=tuple(sorted(players, key=lambda p: -p.ipm)))
    return reports


def test_compare_sparse_league_round_matches_reference_scan():
    reports = _league_round(random.Random(14))
    table = compare_games(reports)
    reference = _reference_compare(reports)
    assert table == reference
    assert [r.mean.hex() for r in table.rows] == [r.mean.hex() for r in reference.rows]
    assert all(list(r.ipms) == list(reports) for r in table.rows)  # game order, every game
    cells = [v for r in table.rows for v in r.ipms.values()]
    assert cells.count(None) > 0.8 * len(cells)
    assert sum(v is not None for v in cells) == 24 * 24


def test_compare_player_first_seen_late_keeps_game_order():
    early = _report_for(build_demo_log())
    reds = Roster("Reds", (RosterPlayer("C"), RosterPlayer("late")))
    blues = Roster("Blues", (RosterPlayer("Y"), RosterPlayer("Z")))
    later = _report_for(GameLog(Sport.BASKETBALL, (reds, blues), (Score("late", 2),)))
    table = compare_games({"g1": early, "g2": early, "g3": later})
    row = next(r for r in table.rows if r.player == "late")
    assert list(row.ipms) == ["g1", "g2", "g3"]
    assert row.ipms["g1"] is None and row.ipms["g2"] is None
    assert row.mean == row.ipms["g3"] == next(p.ipm for p in later.players if p.player == "late")


def test_compare_repeated_id_in_one_game_keeps_its_first_ipm():
    reports = {f"g{g}": _fake_report(random.Random(g), [f"p{i:03d}" for i in range(150)])
               for g in range(3)}
    table = compare_games(reports)
    for gid, report in reports.items():
        first, repeat = (p for p in report.players if p.player == report.players[0].player)
        assert repeat.ipm == 99.0 != first.ipm
        row = next(r for r in table.rows if r.player == first.player)
        assert row.ipms[gid] == first.ipm
