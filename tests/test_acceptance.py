"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Known failure, kept deliberately: criterion 3 asserts the demo game's
two-decimal reference IPM table, whose B entry reads 52.39.  Exact rational
arithmetic on the demo game's own adjacency matrix (the one criterion 1
pins integer-for-integer) gives B = 1762600/33639 = 52.397514..., which
rounds to 52.40 and sits 0.0075 from the reference entry, outside the
criterion's own +/-0.005 band.  No convergent solve of the pinned matrix
can produce 52.39, so the B assertion fails; the other five players match
the reference exactly.  The exact-value oracle for the same computation
lives in test_metrics.py and passes.
"""

import math
import random
import time

import pytest

from playrank.gamelog_json import parse_gamelog, render_gamelog
from playrank.metrics import compute_ipm, aggregates
from playrank.model import GameLog, Roster, RosterPlayer, Score, Sport, validate_game
from playrank.pipeline import build_digraph
from playrank.playscript import parse_playscript
from playrank.ranking import stationary_direct, stationary_power, to_transition
from playrank.render import render_matrix, render_report
from playrank.synth import generate_random_game

from golden import DEMO_ADJACENCY, DEMO_COLUMN_STOCHASTIC, DEMO_IPM_TABLE
from propositions import check_proposition_bounds, exact_rows, primitivity_witness

SWEEP_GAMES_PER_SPORT = 1000
SWEEP_SUBSETS_PER_GAME = 10


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num}] {status} {name}{suffix}")


@pytest.fixture(scope="module")
def demo_text(demo_playscript_path):
    return demo_playscript_path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def sweep():
    """Shared 3x1000-game random sweep feeding criteria 4 and 5."""
    rng = random.Random(987654321)
    worst = {
        "validate_failures": 0,
        "residual": 0.0,
        "solver_gap": 0.0,
        "sum_dev": 0.0,
        "mean_dev": 0.0,
        "min_excess": -math.inf,
        "witnesses": set(),
        "starter_gap_violations": 0,
        "pairwise_gap_violations": 0,
        "games": 0,
    }
    t0 = time.perf_counter()
    for sport in Sport:
        for _ in range(SWEEP_GAMES_PER_SPORT):
            n = rng.randint(6, 30)
            m = rng.randint(0, 500)
            log = generate_random_game(sport, n, m, seed=rng.randrange(2**31))
            if validate_game(log):
                worst["validate_failures"] += 1
                continue
            t = to_transition(build_digraph(log))
            worst["witnesses"].add(primitivity_witness(t))  # the smallest, via any hub
            vp = stationary_power(t)
            vd = stationary_direct(t)
            worst["residual"] = max(worst["residual"], vp.residual, vd.residual)
            worst["solver_gap"] = max(
                worst["solver_gap"], float(abs(vp.values - vd.values).max()))
            report = compute_ipm(vp, log.teams)
            ipms = [p.ipm for p in report.players]
            total = sum(ipms)
            worst["sum_dev"] = max(worst["sum_dev"], abs(total - 50.0 * n))
            worst["mean_dev"] = max(worst["mean_dev"], abs(total / n - 50.0))
            worst["min_excess"] = max(worst["min_excess"], min(ipms) - 50.0)
            ids = [p.player for p in report.players]
            for _ in range(SWEEP_SUBSETS_PER_GAME):
                k = rng.randint(1, n - 1)
                check = check_proposition_bounds(report, starters=rng.sample(ids, k))
                if not check.starter_gap.holds:
                    worst["starter_gap_violations"] += 1
                if not check.pairwise_gap.holds:
                    worst["pairwise_gap_violations"] += 1
            worst["games"] += 1
    worst["elapsed"] = time.perf_counter() - t0
    return worst


def test_criterion_1_golden_adjacency(demo_text):
    parse_playscript(demo_text)  # warm-up
    elapsed = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        graph = build_digraph(parse_playscript(demo_text))
        elapsed = min(elapsed, time.perf_counter() - t0)
    ok = graph.counts.tolist() == DEMO_ADJACENCY and elapsed < 0.010
    _report(1, "golden adjacency matrix", ok, f"{elapsed * 1e3:.2f} ms")
    assert graph.counts.tolist() == DEMO_ADJACENCY
    assert elapsed < 0.010


def test_criterion_2_golden_transition(demo_text):
    t = to_transition(build_digraph(parse_playscript(demo_text)))
    column_stochastic = [list(row) for row in zip(*exact_rows(t))]
    dump = render_matrix(t, "column-stochastic").splitlines()[1:]
    ok = (column_stochastic == DEMO_COLUMN_STOCHASTIC  # exact rationals
          and [line.split() for line in dump]
          == [list(map(str, row)) for row in DEMO_COLUMN_STOCHASTIC])  # the dump, cell by cell
    _report(2, "golden transition matrix (column-stochastic, exact)", ok)
    assert ok


def test_criterion_3_golden_ipm(demo_text):
    """Expected to FAIL on the B entry; see the module docstring."""
    log = parse_playscript(demo_text)
    t0 = time.perf_counter()
    rank = stationary_power(to_transition(build_digraph(log)))
    report = compute_ipm(rank, log.teams)
    elapsed = time.perf_counter() - t0

    by_id = {p.player: p for p in report.players}
    mismatches = []
    for pid, team, expected in DEMO_IPM_TABLE:
        got = by_id[pid]
        if (round(got.ipm, 2) != expected or abs(got.ipm - expected) > 0.005
                or got.team != team):
            mismatches.append(f"{pid}: computed {got.ipm:.6f} vs table {expected}")
    ok = not mismatches and elapsed < 0.100
    _report(3, "golden IPM table", ok,
            "; ".join(mismatches) or f"{elapsed * 1e3:.1f} ms")
    assert elapsed < 0.100
    assert not mismatches, (
        "reference-table mismatch (table inconsistent with its own matrices, "
        "see module docstring): " + "; ".join(mismatches))


def test_criterion_4_random_sweep_invariants(sweep):
    ok = (
        sweep["validate_failures"] == 0
        and sweep["witnesses"] == {2}
        and sweep["sum_dev"] <= 1e-8
        and sweep["mean_dev"] <= 1e-9
        and sweep["min_excess"] <= 1e-9
        and sweep["residual"] <= 1e-10
        and sweep["solver_gap"] <= 1e-9
        and sweep["elapsed"] < 60.0
    )
    _report(4, "3x1000-game invariant sweep", ok,
            f"{sweep['games']} games in {sweep['elapsed']:.1f}s; "
            f"max residual {sweep['residual']:.2e}, solver gap {sweep['solver_gap']:.2e}, "
            f"sum dev {sweep['sum_dev']:.2e}, mean dev {sweep['mean_dev']:.2e}")
    assert sweep["validate_failures"] == 0
    assert sweep["witnesses"] == {2}
    assert sweep["sum_dev"] <= 1e-8
    assert sweep["mean_dev"] <= 1e-9
    assert sweep["min_excess"] <= 1e-9
    assert sweep["residual"] <= 1e-10
    assert sweep["solver_gap"] <= 1e-9
    assert sweep["elapsed"] < 60.0


def test_criterion_5_proposition_bounds(sweep):
    checks = sweep["games"] * SWEEP_SUBSETS_PER_GAME
    ok = (sweep["starter_gap_violations"] == 0
          and sweep["pairwise_gap_violations"] == 0)
    _report(5, "starter-gap and pairwise-gap bounds", ok,
            f"{checks} subset checks, "
            f"{sweep['starter_gap_violations']}+{sweep['pairwise_gap_violations']} violations")
    assert sweep["starter_gap_violations"] == 0
    assert sweep["pairwise_gap_violations"] == 0


def _two_scorer_ipms(g1: int, g2: int) -> tuple[float, float]:
    rosters = (
        Roster("One", (RosterPlayer("P1"),)),
        Roster("Two", (RosterPlayer("P2"),)),
    )
    events = tuple(Score("P1", 1) for _ in range(g1))
    events += tuple(Score("P2", 1) for _ in range(g2))
    log = GameLog(Sport.BASKETBALL, rosters, events)
    rank = stationary_direct(to_transition(build_digraph(log)))
    report = compute_ipm(rank, log.teams)
    by_id = {p.player: p.ipm for p in report.players}
    return by_id["P1"], by_id["P2"]


def test_criterion_6_two_scorer_ordering():
    bad = []
    for g1 in range(1, 11):
        for g2 in range(0, g1):
            ipm1, ipm2 = _two_scorer_ipms(g1, g2)
            if not ipm1 > ipm2:
                bad.append((g1, g2, ipm1, ipm2))
    ipm1, ipm2 = _two_scorer_ipms(2, 1)
    exact = abs(ipm1 - 60.0) <= 1e-9 and abs(ipm2 - 40.0) <= 1e-9
    ok = not bad and exact
    _report(6, "two-scorer ordering and 60/40 case", ok,
            f"(2,1) -> {ipm1:.12f}/{ipm2:.12f}")
    assert not bad, f"ordering failures: {bad}"
    assert exact


def test_criterion_7_cross_format_equivalence(demo_text, demo_json_path):
    from_play = parse_playscript(demo_text)
    from_json = parse_gamelog(demo_json_path.read_text(encoding="utf-8"))

    g_play = build_digraph(from_play)
    g_json = build_digraph(from_json)
    adjacency_equal = g_play.counts.tolist() == g_json.counts.tolist()
    rationals_equal = exact_rows(g_play) == exact_rows(g_json)

    ipm_play = {p.player: p.ipm for p in compute_ipm(
        stationary_power(to_transition(g_play)), from_play.teams).players}
    ipm_json = {p.player: p.ipm for p in compute_ipm(
        stationary_power(to_transition(g_json)), from_json.teams).players}
    ipm_gap = max(abs(ipm_play[p] - ipm_json[p]) for p in ipm_play)

    ok = adjacency_equal and rationals_equal and ipm_gap <= 1e-12
    _report(7, "playscript/JSON equivalence", ok, f"max IPM gap {ipm_gap:.2e}")
    assert adjacency_equal
    assert rationals_equal
    assert ipm_gap <= 1e-12


def test_criterion_8_large_game_performance(tmp_path):
    log = generate_random_game(Sport.BASKETBALL, 25, 2000, seed=42)
    text = render_gamelog(log)

    def pipeline(doc_text: str) -> str:
        parsed = parse_gamelog(doc_text)
        assert not validate_game(parsed)
        rank = stationary_power(to_transition(build_digraph(parsed)))
        report = compute_ipm(rank, parsed.teams)
        return render_report(report, aggregates(report, parsed.metadata), "table")

    pipeline(render_gamelog(generate_random_game(Sport.BASKETBALL, 6, 50, seed=1)))  # warm-up
    elapsed = math.inf
    for _ in range(3):  # min over runs to dodge scheduler noise
        t0 = time.perf_counter()
        rendered = pipeline(text)
        elapsed = min(elapsed, time.perf_counter() - t0)
    ok = elapsed < 0.050 and rendered.startswith("Player | Team | IPM")
    _report(8, "25-player / 2000-event game end to end", ok,
            f"{elapsed * 1e3:.1f} ms")
    assert rendered.startswith("Player | Team | IPM")
    assert elapsed < 0.050
