import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from playrank import ranking
from playrank.gamelog_json import parse_gamelog, render_gamelog
from playrank.model import (
    EVENT_SPECS, GOAL, MAX_PLAYERS, Dispossess, GameLog, Pass, Roster, RosterPlayer,
    Save, Score, Sport, UncontestedMissDead, validate_game,
)
from playrank.pipeline import (
    SolverDisagreement, ValidationFailed, analyze_game, build_digraph, solve_stationary,
)
from playrank.ranking import (
    CorruptedGraphError, NonConvergenceError, PlayDigraph, RankVector,
    SingularSystemError, _hub_solve, arc_columns, check_primitive, stationary_direct,
    stationary_power, to_transition,
)
from playrank.render import MATRIX_FORMS, render_matrix
from playrank.synth import generate_random_game

from golden import (
    DEMO_ADJACENCY, DEMO_COLUMN_STOCHASTIC, DEMO_IPM_EXACT, DEMO_STATIONARY,
    build_demo_log,
)
from propositions import exact_rows, primitivity_witness, refined_stationary


def _rosters(n1, n2, prefix=("H", "A")):
    return (
        Roster("Home", tuple(RosterPlayer(f"{prefix[0]}{i}") for i in range(1, n1 + 1))),
        Roster("Away", tuple(RosterPlayer(f"{prefix[1]}{i}") for i in range(1, n2 + 1))),
    )


def _initial(rosters, sport=Sport.SOCCER):
    """The digraph of a game without events: the 2n + 1 initial arcs."""
    return build_digraph(GameLog(sport, rosters, ()))


def _digraph(counts, nodes=None):
    """The PlayDigraph whose arc counts are the dense ``counts``: one arc
    per nonzero entry, row by row."""
    counts = np.asarray(counts, dtype=np.int64)
    src, dst = np.nonzero(counts)
    return PlayDigraph(nodes or tuple(f"n{i}" for i in range(len(counts))),
                       src, dst, counts[src, dst])


games = st.builds(
    generate_random_game,
    sport=st.sampled_from(list(Sport)),
    n_players=st.integers(min_value=2, max_value=20),
    n_events=st.integers(min_value=0, max_value=120),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


# --- construction ----------------------------------------------------------

def test_initial_digraph_shape_and_arcs():
    g = _initial(_rosters(3, 3))
    assert g.nodes[-1] is GOAL
    assert len(g.nodes) - 1 == 6
    assert list(g.counts[6]) == [1] * 7          # goal row reaches everyone
    assert list(g.counts[:6, 6]) == [1] * 6      # every player reaches goal
    assert g.counts[:6, :6].sum() == 0


def test_init_two_player_matrix():
    g = _initial(_rosters(1, 1))
    assert g.counts.tolist() == [[0, 0, 1], [0, 0, 1], [1, 1, 1]]


def test_initial_goal_row_is_uniform():
    t = to_transition(_initial(_rosters(3, 3)))
    assert exact_rows(t)[6] == tuple([Fraction(1, 7)] * 7)
    for row in exact_rows(t)[:6]:  # players start with a single out-arc to goal
        assert row == (0, 0, 0, 0, 0, 0, 1)


def test_build_digraph_reproduces_demo_adjacency():
    g = build_digraph(build_demo_log())
    assert g.counts.tolist() == DEMO_ADJACENCY


def test_an_empty_event_list_adds_only_the_initial_arcs():
    g = _initial(_rosters(2, 2))
    n = 4  # player -> goal, goal -> everyone incl. itself
    assert [col.tolist() for col in (g.src, g.dst, g.weight)] == [
        [*range(n), *[n] * (n + 1)], [*[n] * n, *range(n + 1)], [1] * (2 * n + 1)]


def test_score_deltas_accumulate():
    rosters = _rosters(1, 1)
    log = GameLog(Sport.BASKETBALL, rosters, (Score("H1", 2), Score("H1", 2)))
    g = build_digraph(log)
    assert g.counts[g.nodes.index(GOAL), g.nodes.index("H1")] == 1 + 4


def _fold_arcs(sport, events):
    """Total arc count per (src, dst) pair that ``events`` add in ``sport``:
    the per-event fold that the columnar build replaced, one arc template
    lookup per event object."""
    arcs = {spec.cls: spec.sports[sport][0] for spec in EVENT_SPECS if sport in spec.sports}
    tally = {}
    for ev in events:
        arc = arcs[type(ev)]
        if arc is None:
            continue
        src, dst, weight = arc
        key = (src if src is GOAL else getattr(ev, src), getattr(ev, dst))
        count = getattr(ev, weight) if isinstance(weight, str) else weight
        tally[key] = tally.get(key, 0) + count
    return tally


def _folded_counts(log):
    g = _initial(log.teams, log.sport)
    counts = g.counts.copy()
    for (src, dst), k in _fold_arcs(log.sport, log.events).items():
        counts[g.nodes.index(src), g.nodes.index(dst)] += k
    return counts


@settings(max_examples=60, deadline=None)
@given(log=games)
def test_build_digraph_matches_the_per_event_fold(log):
    parsed = parse_gamelog(render_gamelog(log))  # events held as arrays only
    api_built = GameLog(log.sport, log.teams, log.events)  # arrays made from event objects
    for each in (parsed, api_built):
        assert np.array_equal(build_digraph(each).counts, _folded_counts(each))


def test_arc_columns_drop_dead_balls_and_follow_the_event_order():
    rosters = _rosters(2, 2)
    log = GameLog(Sport.SOCCER, rosters, (
        Pass("H1", "H2"), UncontestedMissDead("H2"), Save("H2", "A1"), Pass("A1", "A2")))
    src, dst, weight = arc_columns(log)
    # receiver -> passer for a pass, shooter -> keeper for a save; nodes H1 H2 A1 A2 GOAL
    assert (src.tolist(), dst.tolist(), weight.tolist()) == ([1, 1, 3], [0, 2, 2], [1, 1, 1])
    g0, g = _initial(rosters), build_digraph(log)
    assert [col.tolist() for col in (g.src, g.dst, g.weight)] == [
        np.concatenate(pair).tolist() for pair in zip((g0.src, g0.dst, g0.weight), (src, dst, weight))]


def test_counts_are_built_on_first_access_only():
    g = build_digraph(build_demo_log())
    t = to_transition(g)
    stationary_power(t), stationary_direct(t), check_primitive(t)
    for form in MATRIX_FORMS:  # the dumps merge the arcs themselves
        render_matrix(g, form)
    assert "counts" not in vars(g)
    assert g.counts is g.counts and g.counts.dtype == np.int64


@settings(max_examples=40, deadline=None)
@given(log=games)
def test_floats_are_the_counts_over_the_row_sums_exactly(log):
    t = to_transition(build_digraph(log))
    counts = t.counts
    assert np.array_equal(t.row_sums, counts.sum(axis=1))
    dense = t._dense_transpose()  # both solvers' T^t, in this thread's buffer
    expected = (counts / t.row_sums[:, None]).T
    assert dense.dtype == np.float64 and dense.flags.f_contiguous
    assert dense.tobytes(order="F") == expected.tobytes(order="F")  # bit for bit


def test_build_digraph_rejects_what_validation_rejects():
    rosters = _rosters(1, 1)
    for event, reason in ((Save("H1", "A1"), "save is not a basketball event"),
                          (Score("ghost", 2), "score references unknown player 'ghost'")):
        with pytest.raises(ValidationFailed) as info:
            build_digraph(GameLog(Sport.BASKETBALL, rosters, (event,)))
        assert list(map(str, info.value.violations)) == [f"event 0: {reason}"]


@pytest.mark.parametrize("away, event", [
    (("A1", "A2"), Score("H1", -2)),
    (("A1", "H2"), Pass("H1", "H2")),
    (("A1", "A2"), Dispossess("H1", "H2")),
    (("A1", "A2"), Save("H1", "A1")),
    (("A1", "A2"), Pass("H1", "ghost")),
], ids=["negative-score", "id-on-both-rosters", "same-team-dispossess", "illegal-kind",
        "unknown-player"])
def test_build_digraph_refuses_an_invalid_log_with_the_whole_list(away, event):
    rosters = (Roster("Home", (RosterPlayer("H1"), RosterPlayer("H2"))),
               Roster("Away", tuple(map(RosterPlayer, away))))
    log = GameLog(Sport.BASKETBALL, rosters, (event,))
    violations = validate_game(log)
    assert violations
    with pytest.raises(ValidationFailed) as info:
        build_digraph(log)
    assert info.value.violations == violations


def test_demo_transition_matches_column_stochastic_reference():
    t = to_transition(build_digraph(build_demo_log()))
    transposed = tuple(zip(*exact_rows(t)))
    assert [list(r) for r in transposed] == DEMO_COLUMN_STOCHASTIC


def test_zero_row_is_a_corrupted_graph():
    counts = np.zeros((3, 3), dtype=np.int64)
    counts[2, :] = 1
    # the out-degrees are summed where they are read, so every solver given
    # the digraph itself refuses it too
    for read in (to_transition, lambda g: g.row_sums, stationary_power, stationary_direct,
                 solve_stationary):
        with pytest.raises(CorruptedGraphError, match="node 'p' has no outgoing arcs"):
            read(_digraph(counts, ("p", "q", GOAL)))


def test_a_negative_arc_weight_is_a_corrupted_graph():
    # out-degrees [-2, 2]: no zero row, and yet no chain
    def digraph():
        return PlayDigraph(("p", GOAL), *np.array([[0, 0, 1, 1], [1, 1, 0, 1], [1, -3, 1, 1]]))

    for read in (to_transition, lambda g: g.row_sums, stationary_power, stationary_direct,
                 solve_stationary):
        with pytest.raises(CorruptedGraphError, match="arc 'p' -> GOAL has weight -3"):
            read(digraph())


@settings(max_examples=40, deadline=None)
@given(log=games)
def test_solvers_take_the_digraph_straight_from_build_digraph(log):
    g, t = build_digraph(log), to_transition(build_digraph(log))
    for solve in (lambda t: stationary_power(t, max_iters=1_000_000), stationary_direct):
        raw, via = solve(g), solve(t)
        assert raw.values.tobytes() == via.values.tobytes()  # bit-identical
        assert (raw.residual, raw.iterations) == (via.residual, via.iterations)


@settings(max_examples=40, deadline=None)
@given(log=games)
def test_row_sums_exactly_one_and_monotone(log):
    g0, g = _initial(log.teams, log.sport), build_digraph(log)
    assert (g.counts >= g0.counts).all()  # events only add arcs
    t = to_transition(g)
    assert all(sum(row) == 1 for row in exact_rows(t))


# --- primitivity -----------------------------------------------------------
# primitivity_witness (tests/propositions.py) is the oracle: any hub, and the
# smallest witness.  check_primitive certifies the goal hub only, and says 2.

def test_initialized_graphs_are_primitive_with_witness_two():
    t = to_transition(_initial(_rosters(5, 4)))
    assert primitivity_witness(t) == 2
    assert check_primitive(t) == 2


def test_demo_graph_witness_two():
    t = to_transition(build_digraph(build_demo_log()))
    assert primitivity_witness(t) == 2
    assert check_primitive(t) == 2


def test_identity_pattern_is_not_primitive():
    g = _digraph(np.eye(3, dtype=np.int64), ("p", "q", GOAL))
    with pytest.raises(CorruptedGraphError):
        check_primitive(to_transition(g))


def _pattern_matrix(counts):
    """The chain of the arc counts ``counts``; a zero row raises only once
    ``row_sums`` is read."""
    return _digraph(counts)


def _has_hub(counts):
    pattern = np.asarray(counts) > 0
    return bool((pattern.all(axis=0) & pattern.all(axis=1)).any())


def _smallest_witness(counts):
    """Brute force: the first m <= (k-1)^2 + 1 (Wielandt's bound for k x k
    matrices) with the m-th boolean power of the pattern all true."""
    pattern = np.asarray(counts) > 0
    k = len(pattern)
    for m in range(1, (k - 1) ** 2 + 2):
        if np.linalg.matrix_power(pattern, m).all():
            return m
    return None


@st.composite
def count_matrices(draw, max_k=6, hub=None):
    k = draw(st.integers(min_value=1, max_value=max_k))
    counts = np.array(draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=2), min_size=k, max_size=k),
        min_size=k, max_size=k)), dtype=np.int64)
    if hub is None:
        hub = draw(st.booleans())
    if hub:  # plant a hub: its whole row and column positive
        h = draw(st.integers(min_value=0, max_value=k - 1))
        counts[h, :] = np.maximum(counts[h, :], 1)
        counts[:, h] = np.maximum(counts[:, h], 1)
    return counts


@settings(max_examples=300, deadline=None)
@given(counts=count_matrices())
def test_check_primitive_matches_brute_force_witness(counts):
    if _has_hub(counts):
        assert primitivity_witness(_pattern_matrix(counts)) == _smallest_witness(counts)
    else:  # not a graph build_digraph can build, primitive or not
        with pytest.raises(CorruptedGraphError):
            primitivity_witness(_pattern_matrix(counts))


@pytest.mark.parametrize("k", [3, 4, 5, 7])
def test_hubless_cycle_with_chord_needs_the_wielandt_walk(k):
    # k-cycle 0 -> 1 -> ... -> k-1 -> 0 plus the chord k-1 -> 1: Wielandt's
    # matrix, whose smallest witness (k-1)^2 + 1 is the largest possible.
    counts = np.zeros((k, k), dtype=np.int64)
    counts[np.arange(k), (np.arange(k) + 1) % k] = 1
    counts[k - 1, 1] = 1
    assert not _has_hub(counts)
    for certify in (primitivity_witness, check_primitive):
        with pytest.raises(CorruptedGraphError):
            certify(_pattern_matrix(counts))
    assert _smallest_witness(counts) == (k - 1) ** 2 + 1


@settings(max_examples=40, deadline=None)
@given(log=games)
def test_every_game_graph_has_witness_two(log):
    t = to_transition(build_digraph(log))
    assert primitivity_witness(t) == 2  # the smallest witness
    assert check_primitive(t) == 2  # the goal hub's certificate


@settings(max_examples=300, deadline=None)
@given(counts=count_matrices())
def test_check_primitive_accepts_exactly_a_last_node_hub(counts):
    t = _pattern_matrix(counts)
    if (counts[-1, :] > 0).all() and (counts[:, -1] > 0).all():
        assert check_primitive(t) == 2
    else:  # even where the oracle finds another hub
        with pytest.raises(CorruptedGraphError):
            check_primitive(t)


@pytest.mark.parametrize("arc", [(1, 3), (3, 1)], ids=["into-last", "out-of-last"])
def test_a_hub_other_than_the_last_node_is_corrupt(arc):
    counts = np.ones((4, 4), dtype=np.int64)
    counts[arc] = 0
    t = _pattern_matrix(counts)
    assert primitivity_witness(t) == 2  # node 0 is a hub
    with pytest.raises(CorruptedGraphError):
        check_primitive(t)


def test_an_all_positive_chain_certifies_two_not_one():
    t = _pattern_matrix(np.ones((3, 3), dtype=np.int64))
    assert primitivity_witness(t) == 1
    assert check_primitive(t) == 2


# --- stationary solvers ----------------------------------------------------

def test_two_player_no_event_chain():
    # Players' only out-arc goes to goal; solve the 3-state chain by hand:
    # v = (1/5, 1/5, 3/5).
    t = to_transition(_initial(_rosters(1, 1)))
    for solve in (stationary_power, stationary_direct):
        v = solve(t)
        assert np.allclose(v.values, [0.2, 0.2, 0.6], atol=1e-12)
        assert v.residual <= 1e-10


def test_two_scorer_chain():
    # Goal out-degree 6: two initialization arcs, three score arcs, self-loop.
    rosters = _rosters(1, 1)
    log = GameLog(Sport.BASKETBALL, rosters,
                  (Score("H1", 1), Score("H1", 1), Score("A1", 1)))
    t = to_transition(build_digraph(log))
    expect = [3 / 11, 2 / 11, 6 / 11]
    assert np.allclose(stationary_power(t).values, expect, atol=1e-12)
    assert np.allclose(stationary_direct(t).values, expect, atol=1e-12)


def test_demo_stationary_matches_exact_solution():
    t = to_transition(build_digraph(build_demo_log()))
    exact = np.array([float(x) for x in DEMO_STATIONARY])
    assert np.abs(stationary_power(t).values - exact).max() <= 1e-12
    assert np.abs(stationary_direct(t).values - exact).max() <= 1e-12


def test_uniform_ranks_on_initial_graph():
    t = to_transition(_initial(_rosters(4, 4)))
    v = stationary_power(t)
    assert np.allclose(v.player_ranks, v.player_ranks[0])


def test_power_solver_metadata():
    t = to_transition(build_digraph(build_demo_log()))
    v = stationary_power(t)
    assert v.method == "power"
    assert v.iterations > 1
    assert abs(v.values.sum() - 1.0) <= 1e-12
    assert v.values.min() >= 0
    assert stationary_direct(t).method == "direct"


def test_power_nonconvergence_raises():
    t = to_transition(build_digraph(build_demo_log()))
    with pytest.raises(NonConvergenceError):
        stationary_power(t, tol=1e-15, max_iters=2)


def test_power_rejects_bad_arguments():
    t = to_transition(_initial(_rosters(1, 1)))
    with pytest.raises(ValueError):
        stationary_power(t, tol=0.0)
    with pytest.raises(ValueError):
        stationary_power(t, max_iters=0)


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), float("-inf"), -1e-12])
def test_power_rejects_tolerance_that_is_not_positive_and_finite(tol):
    # inf would stop after one step and nan would never stop
    t = to_transition(build_digraph(build_demo_log()))
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        stationary_power(t, tol=tol)


@settings(max_examples=40, deadline=None)
@given(log=games)
def test_power_and_direct_agree(log):
    t = to_transition(build_digraph(log))
    # The oracles' agreement, not the production budget: a two-player game
    # with 100+ events can need over 1,000 iterations (|lambda_2| ~ 0.975).
    vp = stationary_power(t, max_iters=1_000_000)
    vd = stationary_direct(t)
    assert np.abs(vp.values - vd.values).max() <= 1e-9
    assert vp.residual <= 1e-10
    assert vd.residual <= 1e-10
    assert abs(vp.values.sum() - 1.0) <= 1e-12
    # the direct residual, summed over the arcs, is the dense one up to the
    # rounding of a sum of at most one term per arc, each below 1
    dense = np.abs((t.counts / t.row_sums[:, None]).T @ vd.values - vd.values).max()
    assert abs(vd.residual - dense) <= len(t.src) * np.finfo(float).eps


@settings(max_examples=25, deadline=None)
@given(log=games, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_rank_is_permutation_equivariant(log, seed):
    import random

    rng = random.Random(seed)

    def shuffled(roster):
        players = list(roster.players)
        rng.shuffle(players)
        return Roster(roster.name, tuple(players))

    base = stationary_direct(to_transition(build_digraph(log)))
    by_id = dict(zip([n for n in base.nodes[:-1]], base.player_ranks))

    teams = (shuffled(log.teams[0]), shuffled(log.teams[1]))
    if rng.random() < 0.5:
        teams = (teams[1], teams[0])
    permuted_log = GameLog(log.sport, teams, log.events)
    perm = stationary_direct(to_transition(build_digraph(permuted_log)))
    for node, rank in zip(perm.nodes[:-1], perm.player_ranks):
        assert abs(by_id[node] - rank) <= 1e-9


def test_solve_stationary_rejects_an_unknown_solver():
    t = to_transition(_initial(_rosters(1, 1)))
    with pytest.raises(ValueError, match="unknown solver 'bogus'"):
        solve_stationary(t, "bogus")


def test_solvers_that_disagree_raise(monkeypatch):
    t = to_transition(build_digraph(build_demo_log()))
    real = stationary_direct(t)
    shift = np.zeros(len(t.nodes))
    shift[:2] = 1e-6, -1e-6
    perturbed = RankVector(real.nodes, real.values + shift, real.residual, "direct")
    monkeypatch.setattr("playrank.pipeline.stationary_direct", lambda t: perturbed)
    with pytest.raises(SolverDisagreement, match=r"solvers disagree by 1\.000e-06"):
        solve_stationary(t, "both")


def test_direct_solve_of_a_singular_system_raises():
    # T = I: (T^t - I) is zero, so with the normalization row it has rank 1
    with pytest.raises(SingularSystemError, match="direct solve failed"):
        stationary_direct(_pattern_matrix(np.eye(3, dtype=np.int64)))


def test_direct_solve_with_a_negative_entry_raises(monkeypatch):
    t = to_transition(build_digraph(build_demo_log()))
    negative = np.full(len(t.nodes), 1.0 / (len(t.nodes) - 2))
    negative[0] = -negative[0]
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: negative)
    with pytest.raises(SingularSystemError, match="invalid stationary vector"):
        stationary_direct(t)


# --- exact oracle and the direct fallback ----------------------------------

def _gth_stationary(counts):
    """Exact stationary vector of the chain with arc counts ``counts``.

    GTH state reduction (Grassmann, Taksar & Heyman 1985): censor the chain
    onto states 0..n-1 for n = k-1 down to 1, then back-substitute.  It
    never subtracts, and here it runs on Fractions, so the result is exact
    and shares no arithmetic with either production solver.
    """
    k = len(counts)
    a = [[Fraction(int(c), int(sum(row))) for c in row] for row in counts]
    for n in range(k - 1, 0, -1):
        out = sum(a[n][:n])  # probability of leaving n for a lower state
        for i in range(n):
            a[i][n] /= out
        for i in range(n):
            for j in range(n):
                a[i][j] += a[i][n] * a[n][j]
    pi = [Fraction(1)]
    for j in range(1, k):
        pi.append(sum(pi[i] * a[i][j] for i in range(j)))
    total = sum(pi)
    return [p / total for p in pi]


def _exact_ipms(counts, players):
    """IPM_i = 50 n pi_i / (1 - pi_goal), the goal node last."""
    pi = _gth_stationary(counts)
    return {p: 50 * len(players) * pi[i] / (1 - pi[-1]) for i, p in enumerate(players)}


def test_gth_reproduces_the_demo_exactly():
    assert _gth_stationary(DEMO_ADJACENCY) == DEMO_STATIONARY
    ipms = _exact_ipms(DEMO_ADJACENCY, "ABCDEF")
    assert ipms == DEMO_IPM_EXACT
    assert ipms["B"] == Fraction(1762600, 33639)


@settings(max_examples=100, deadline=None)
@given(counts=count_matrices(max_k=8, hub=True))
def test_solvers_match_the_gth_oracle(counts):
    exact = np.array([float(x) for x in _gth_stationary(counts)])
    t = _pattern_matrix(counts)
    # The power stop rule bounds the last step, not the error: at the default
    # 1e-12 step the error on these chains reaches about 1.1e-12.  A hub
    # entry of at least 1/16 per row makes the step contract by 15/16, so a
    # 1e-14 step leaves at most 1.5e-13.
    assert np.abs(stationary_power(t, tol=1e-14).values - exact).max() <= 1e-12
    assert np.abs(stationary_direct(t).values - exact).max() <= 1e-12


@settings(max_examples=100, deadline=None)
@given(counts=count_matrices(max_k=8, hub=True))
def test_dense_and_arc_steps_agree(counts):
    # One arc per nonzero count: the arc step while some count is 0.  The same
    # chain padded with weight-0 arcs up to k^2 arcs takes the dense step.
    k = len(counts)
    arcs = _pattern_matrix(counts)
    pad = k * k - len(arcs.src)
    dense = PlayDigraph(arcs.nodes, np.concatenate((arcs.src, np.zeros(pad, np.int64))),
                        np.concatenate((arcs.dst, np.zeros(pad, np.int64))),
                        np.concatenate((arcs.weight, np.zeros(pad, np.int64))))
    assert len(dense.src) == k * k
    # The two steps sum in other orders, so a step may differ by about 1e-16:
    # a stop decided within that of tol could come one iteration apart.  At
    # tol 1e-9 that is a 1e-7 chance per chain, so the counts must agree.
    by_arcs, by_dense = stationary_power(arcs, tol=1e-9), stationary_power(dense, tol=1e-9)
    assert by_arcs.iterations == by_dense.iterations
    assert np.abs(by_arcs.values - by_dense.values).max() <= 1e-15
    exact = np.array([float(x) for x in _gth_stationary(counts)])
    assert np.abs(stationary_power(dense, tol=1e-14).values - exact).max() <= 1e-12


def _fresh_thread(fn):
    """``fn()`` run in a new thread, so with no T^t buffer yet."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn).result()


def test_power_on_arcs_never_builds_the_buffer():
    t = to_transition(build_digraph(generate_random_game(Sport.SOCCER, 350, 2_000, 7)))
    assert len(t.nodes) ** 2 > len(t.src)

    def solve():
        stationary_power(t)
        return getattr(ranking._workspace, "buf", None)
    assert _fresh_thread(solve) is None


def test_the_hub_solve_builds_no_buffer():
    t = to_transition(build_digraph(generate_random_game(Sport.SOCCER, 350, 2_000, 7)))
    assert len(t.nodes) ** 3 > ranking.HUB_CROSSOVER * len(t.src)

    def solve():
        stationary_direct(t)
        return getattr(ranking._workspace, "buf", None)
    assert _fresh_thread(solve) is None


def _with_lu(t):
    """``stationary_direct(t)`` in a fresh thread, and whether it built the
    T^t buffer, so took the LU."""
    def solve():
        return stationary_direct(t), getattr(ranking._workspace, "buf", None) is not None
    return _fresh_thread(solve)


def test_below_the_crossover_the_direct_solve_is_the_lu():
    t = to_transition(build_digraph(build_demo_log()))  # 7 nodes, 47 arcs
    assert len(t.nodes) ** 3 <= ranking.HUB_CROSSOVER * len(t.src)
    rank, lu = _with_lu(t)
    assert lu
    assert np.abs(rank.values - [float(x) for x in DEMO_STATIONARY]).max() <= 1e-15


def _hub_allowance(k):
    return 2 * (k + 2) * 2.0 ** -53


@st.composite
def last_hub_count_matrices(draw, max_k=8):
    """Arc counts whose last node is a hub (its row and column positive),
    with some player-to-player count 0."""
    counts = draw(count_matrices(max_k=max_k, hub=False).filter(lambda c: len(c) >= 2))
    counts[-1, :] = np.maximum(counts[-1, :], 1)
    counts[:, -1] = np.maximum(counts[:, -1], 1)
    players = st.integers(min_value=0, max_value=len(counts) - 2)
    counts[draw(players), draw(players)] = 0
    return counts


@settings(max_examples=100, deadline=None)
@given(counts=last_hub_count_matrices())
def test_the_hub_solve_matches_the_gth_oracle(counts):
    v, residual = _hub_solve(_pattern_matrix(counts))
    exact = np.array([float(x) for x in _gth_stationary(counts)])
    assert np.abs(v - exact).max() <= 1e-12
    assert np.abs(residual).sum() <= _hub_allowance(len(counts))


# Chains on which BiCGSTAB's recurred residual meets its own stop while the
# vector's true residual is 8 to 15 times the allowance: the certificate
# refuses that vector and the restart from the true residual gives one
# within it.  Found among 30,000 random hub chains of 2-8 nodes.
DRIFTING_CHAINS = [
    [[0, 6, 1], [4, 15, 1], [12, 17, 12]],
    [[37, 72, 29, 11], [0, 22, 125, 14], [107, 68, 72, 12], [7, 47, 128, 90]],
    [[458667, 554828, 179520, 377757, 63694, 69853],
     [317482, 308000, 441371, 441334, 458413, 146764],
     [186721, 498121, 172486, 0, 221042, 80026], [67289, 490646, 456412, 469929, 232912, 53634],
     [260566, 105902, 282750, 417435, 224675, 44650], [336485, 38787, 35558, 63763, 526542, 66955]],
]


@pytest.mark.parametrize("counts", DRIFTING_CHAINS, ids=["k3", "k4", "k6"])
def test_the_hub_vector_meets_the_rounding_allowance(counts):
    v, residual = _hub_solve(_digraph(counts))
    assert np.abs(residual).sum() <= _hub_allowance(len(counts))
    assert np.abs(v - [float(x) for x in _gth_stationary(np.array(counts))]).max() <= 1e-15


def _passing_pair(players, passes):
    """Each player has an arc to and from the goal, and players 0 and 1
    pass ``passes`` times each way, one arc per pass; with the chain's
    stationary vector as Fractions.  Exactly, x = pi / pi_goal has x_j =
    T[goal, j] = 1/k for the players only the goal enters, and x_0 = x_1 =
    (passes + 1)/k, since each of the pair gets 1/k from the goal and
    passes/(passes + 1) of the other's share."""
    k = players + 1
    src = np.concatenate((np.arange(players), np.full(k, players), np.repeat([0, 1], passes)))
    dst = np.concatenate((np.full(players, players), np.arange(k), np.repeat([1, 0], passes)))
    t = PlayDigraph(tuple(f"n{i}" for i in range(k)), src, dst, np.ones(len(src), np.int64))
    x = [Fraction(passes + 1, k)] * 2 + [Fraction(1, k)] * (k - 3) + [Fraction(1)]
    return t, [xi / sum(x) for xi in x]


@pytest.mark.parametrize("players, passes", [(399, 5_000), (459, 100_000)])
def test_the_hub_solve_sums_repeated_arcs_exactly(players, passes):
    # The pair leaves for the goal once in passes + 1 steps, so products
    # that added the passes one at a time in float64 would move the vector
    # by up to 1e-11; merged into one count per pair, as the LU's T^t has
    # them, the hub vector is as close to the exact one as the LU's.
    t, exact = _passing_pair(players, passes)
    v, _ = _hub_solve(t)
    assert np.abs(v - [float(x) for x in exact]).max() <= 2e-14


def test_a_nearly_decomposable_chain_refuses_the_hub_vector():
    # 399 players in 5 teams that pass 100 to 1,000,000 times within a team
    # and once across or to the goal: BiCGSTAB does not reach its own stop
    # in HUB_MAX_ITERS steps, so the LU gives the vector.
    k, players = 400, 399
    rng = np.random.default_rng(5)
    a, b = rng.integers(0, players, (2, 4_000))
    weight = np.where(a % 5 == b % 5, 10 ** rng.integers(2, 7, 4_000), 1)
    src = np.concatenate((np.arange(players), np.full(k, players), a))
    dst = np.concatenate((np.full(players, players), np.arange(k), b))
    t = PlayDigraph(tuple(f"n{i}" for i in range(k)), src, dst,
                    np.concatenate((np.ones(2 * k - 1, np.int64), weight)))
    assert k ** 3 > ranking.HUB_CROSSOVER * len(t.src)
    assert _hub_solve(t) is None
    rank, lu = _with_lu(t)
    assert lu
    assert np.abs(rank.values - refined_stationary(t).astype(float)).max() <= 1e-12


def test_a_player_without_an_arc_to_the_goal_takes_the_lu():
    # 400 nodes: the goal passes to everyone, every player but n0 passes to
    # the goal, and n0 passes to n1 instead, so x = pi / pi_goal is 1/k for
    # each player but n1, which gets 2/k.
    k, players = 400, 399
    src = np.concatenate(([0], np.arange(1, players), np.full(k, players)))
    dst = np.concatenate(([1], np.full(players - 1, players), np.arange(k)))
    t = PlayDigraph(tuple(f"n{i}" for i in range(k)), src, dst, np.ones(len(src), np.int64))
    assert k ** 3 > ranking.HUB_CROSSOVER * len(t.src)
    assert _hub_solve(t) is None
    rank, lu = _with_lu(t)
    assert lu
    x = np.array([1, 2] + [1] * (k - 3) + [k]) / (2 * k)
    assert np.abs(rank.values - x).max() <= 1e-15


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="numpy's long double is float64 here")
def test_the_refined_reference_is_the_exact_vector():
    # within 1e-16 where the float64 LU's vector is about 1.4e-14 off
    t, exact = _passing_pair(459, 100_000)
    exact = np.array([np.longdouble(x.numerator) / x.denominator for x in exact])
    assert np.abs(refined_stationary(t) - exact).max() <= 1e-16


def test_the_buffer_is_one_float64_matrix_kept_and_grown():
    small, large = (to_transition(build_digraph(generate_random_game(Sport.HOCKEY, n, m, 3)))
                    for n, m in ((30, 2_000), (60, 50)))
    assert len(small.nodes) ** 2 <= len(small.src)  # power takes the dense step
    j, k = len(small.nodes), len(large.nodes)

    def solve():
        stationary_power(small)  # the dense step makes the buffer
        buf = ranking._workspace.buf
        assert buf.dtype == np.float64 and buf.size == j * j
        stationary_direct(small)  # and warms the lazy imports
        assert ranking._workspace.buf is buf  # reused
        del buf
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stationary_direct(large)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert ranking._workspace.buf.size == k * k  # grown, the small one dropped
        stationary_direct(small)
        assert ranking._workspace.buf.size == k * k  # never shrunk
        return grown
    # one k x k float64 buffer survives the solve, and nothing else does (the
    # j x j one predates tracing, so its release is not counted)
    assert 0 <= _fresh_thread(solve) - 8 * k * k < 4096


def test_threads_solving_at_once_get_the_sequential_results():
    # more threads than cores, switching often, each graph of its own size
    graphs = [to_transition(build_digraph(generate_random_game(sport, n, 3_000, seed)))
              for sport, n, seed in ((Sport.BASKETBALL, 20, 1), (Sport.SOCCER, 30, 2),
                                     (Sport.HOCKEY, 24, 3), (Sport.BASKETBALL, 12, 4))]
    assert all(len(t.nodes) ** 2 <= len(t.src) for t in graphs)  # the dense step

    def solve(t):
        return [stationary_power(t).values, stationary_direct(t).values]
    expected = [solve(t) for t in graphs]
    start = threading.Barrier(len(graphs), timeout=30)

    def repeat(t):
        start.wait()
        return [solve(t) for _ in range(20)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(graphs)) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(repeat, t) for t in graphs]]
    finally:
        sys.setswitchinterval(interval)
    for want, got in zip(expected, results):
        for values in got:
            assert all(map(np.array_equal, values, want))


def test_threads_analysing_games_at_once_get_the_sequential_reports():
    # a 351-node game whose power steps and hub solve run on the arcs and a
    # 25-node one whose power steps and LU run on the T^t buffer
    logs = [generate_random_game(Sport.BASKETBALL, n, m, seed)
            for n, m, seed in ((350, 2_000, 1), (24, 2_500, 2))]
    graphs = [build_digraph(log) for log in logs]
    assert [len(g.nodes) ** 2 <= len(g.src) for g in graphs] == [False, True]
    expected = [analyze_game(log, solver="both").report for log in logs]
    start = threading.Barrier(len(logs), timeout=30)

    def repeat(log, times):
        start.wait()
        return [analyze_game(log, solver="both").report for _ in range(times)]
    with ThreadPoolExecutor(len(logs)) as pool:
        futures = [pool.submit(repeat, log, times) for log, times in zip(logs, (20, 200))]
        results = [f.result(timeout=60) for f in futures]
    for want, got in zip(expected, results):
        assert all(report == want for report in got)


@pytest.mark.parametrize("solver", ["power", "both"])
def test_exhausted_power_budget_falls_back_to_direct(solver):
    t = to_transition(build_digraph(build_demo_log()))
    rank, gap = solve_stationary(t, solver, max_iters=1)
    assert rank.method == "direct" and gap is None
    assert np.array_equal(rank.values, stationary_direct(t).values)


def test_near_periodic_game_is_solved_directly():
    # A 3-v-1 game whose passes nearly make a0 <-> a1 a two-cycle: |lambda_2|
    # is close to 1 and power iteration needs tens of thousands of steps.
    players = ("a0", "a1", "a2", "b0")
    rosters = (Roster("A", tuple(RosterPlayer(p) for p in players[:3])),
               Roster("B", (RosterPlayer("b0"),)))
    passes = {("a0", "a1"): 2000, ("a1", "a0"): 2000, ("a2", "a0"): 700, ("a0", "a2"): 300}
    log = GameLog(Sport.BASKETBALL, rosters, tuple(
        Pass(src, dst) for (src, dst), times in passes.items() for _ in range(times)))
    counts = np.zeros((5, 5), dtype=np.int64)  # the initial arcs by hand
    counts[:4, 4] = 1
    counts[4, :] = 1
    for (passer, receiver), times in passes.items():  # receiver -> passer arcs
        counts[players.index(receiver), players.index(passer)] += times

    with pytest.raises(NonConvergenceError) as info:
        stationary_power(to_transition(build_digraph(log)))
    # handed off as soon as the step's decay rules out tol in 1,000 steps
    assert int(re.search(r"after (\d+),", str(info.value)).group(1)) <= 64
    analysis = analyze_game(log)
    assert analysis.rank.method == "direct"
    exact = _exact_ipms(counts, players)
    for p in analysis.report.players:
        assert abs(p.ipm - float(exact[p.player])) <= 1e-9


# --- memory ----------------------------------------------------------------

@pytest.mark.parametrize("solver, game, bytes_per_entry", [
    pytest.param(solver, (Sport.SOCCER, 350, 2_000, 7), 12, id=solver)
    for solver in ("power", "direct", "both")
] + [pytest.param(solver, (Sport.BASKETBALL, MAX_PLAYERS, 10_000, 1), 1, id=f"{solver}-at-cap")
       for solver in ("power", "direct", "both")])
def test_analysis_holds_no_dense_matrix(solver, game, bytes_per_entry):
    # At k = 351 nodes one k x k float64 matrix is 8 k^2 bytes (986 kB).  The
    # traced analysis runs in a new thread, so an LU there would build its
    # T^t buffer inside the trace (LAPACK's copy of it is not traced); the
    # analysis keeps the arc columns, which grow with the events, not with
    # k^2.  All these games have k^2 > arcs, so power steps on the arcs and
    # the direct solve goes through the goal hub, and neither builds anything
    # k x k: at the player cap the peak stays below k^2 bytes, so not even a
    # boolean pattern fits.
    log = generate_random_game(*game)
    k = log.n_players + 1
    analyze_game(log, solver)  # warm caches and lazy imports
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        analysis = _fresh_thread(lambda: analyze_game(log, solver))
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < bytes_per_entry * k ** 2
    assert after - before <= 4 * k ** 2  # half a float64 matrix
    assert analysis.rank.method == ("direct" if solver == "direct" else "power")
