import re
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from playrank.gamelog_json import parse_gamelog, render_gamelog
from playrank.model import (
    EVENT_SPECS, GOAL, MAX_PLAYERS, GameLog, Pass, Roster, RosterPlayer, Save,
    Score, Sport, UncontestedMissDead,
)
from playrank.pipeline import (
    SolverDisagreement, analyze_game, build_digraph, solve_stationary,
)
from playrank.ranking import (
    CorruptedGraphError, NonConvergenceError, PlayDigraph, RankVector,
    SingularSystemError, apply_events, arc_columns, check_primitive,
    init_digraph, stationary_direct, stationary_power, to_transition,
)
from playrank.synth import generate_random_game

from golden import (
    DEMO_ADJACENCY, DEMO_COLUMN_STOCHASTIC, DEMO_IPM_EXACT, DEMO_STATIONARY,
    build_demo_log,
)
from propositions import primitivity_witness


def _rosters(n1, n2, prefix=("H", "A")):
    return (
        Roster("Home", tuple(RosterPlayer(f"{prefix[0]}{i}") for i in range(1, n1 + 1))),
        Roster("Away", tuple(RosterPlayer(f"{prefix[1]}{i}") for i in range(1, n2 + 1))),
    )


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

def test_init_digraph_shape_and_arcs():
    g = init_digraph(_rosters(3, 3))
    assert g.nodes[-1] is GOAL
    assert g.n_players == 6
    assert list(g.counts[6]) == [1] * 7          # goal row reaches everyone
    assert list(g.counts[:6, 6]) == [1] * 6      # every player reaches goal
    assert g.counts[:6, :6].sum() == 0


def test_init_two_player_matrix():
    g = init_digraph(_rosters(1, 1))
    assert g.counts.tolist() == [[0, 0, 1], [0, 0, 1], [1, 1, 1]]


def test_initial_goal_row_is_uniform():
    t = to_transition(init_digraph(_rosters(3, 3)))
    assert t.rational[6] == tuple([Fraction(1, 7)] * 7)
    for row in t.rational[:6]:  # players start with a single out-arc to goal
        assert row == (0, 0, 0, 0, 0, 0, 1)


def test_apply_events_reproduces_demo_adjacency():
    g = build_digraph(build_demo_log())
    assert g.counts.tolist() == DEMO_ADJACENCY


def test_apply_empty_event_list_is_identity():
    g0 = init_digraph(_rosters(2, 2))
    g1 = apply_events(g0, GameLog(Sport.SOCCER, _rosters(2, 2), ()))
    assert g1.counts.tolist() == g0.counts.tolist()
    assert g1 is not g0


def test_score_deltas_accumulate():
    rosters = _rosters(1, 1)
    log = GameLog(Sport.BASKETBALL, rosters, (Score("H1", 2), Score("H1", 2)))
    g = apply_events(init_digraph(rosters), log)
    assert g.counts[g.index_of(GOAL), g.index_of("H1")] == 1 + 4


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
    g = init_digraph(log.teams)
    counts = g.counts.copy()
    for (src, dst), k in _fold_arcs(log.sport, log.events).items():
        counts[g.index_of(src), g.index_of(dst)] += k
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
    g0 = init_digraph(rosters)
    g = apply_events(g0, log)
    assert [col.tolist() for col in (g.src, g.dst, g.weight)] == [
        np.concatenate(pair).tolist() for pair in zip((g0.src, g0.dst, g0.weight), (src, dst, weight))]


def test_counts_are_built_on_first_access_only():
    g = build_digraph(build_demo_log())
    t = to_transition(g)
    stationary_power(t), stationary_direct(t), check_primitive(t)
    assert not {"floats", "rational"} & vars(t).keys() and "counts" not in vars(g)
    assert g.counts is g.counts and g.counts.dtype == np.int64


@settings(max_examples=40, deadline=None)
@given(log=games)
def test_floats_are_the_counts_over_the_row_sums_exactly(log):
    t = to_transition(build_digraph(log))
    counts = t.counts
    assert np.array_equal(t.row_sums, counts.sum(axis=1))
    assert np.array_equal(t.floats, counts / t.row_sums[:, None])
    assert t.floats.flags.c_contiguous


def test_apply_events_rejects_what_validation_rejects():
    rosters = _rosters(1, 1)
    with pytest.raises(ValueError, match="event 0 is not a basketball event"):
        build_digraph(GameLog(Sport.BASKETBALL, rosters, (Save("H1", "A1"),)))
    with pytest.raises(KeyError):
        build_digraph(GameLog(Sport.BASKETBALL, rosters, (Score("ghost", 2),)))


def test_demo_transition_matches_column_stochastic_reference():
    t = to_transition(build_digraph(build_demo_log()))
    transposed = tuple(zip(*t.rational))
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
    g0 = init_digraph(log.teams)
    g = apply_events(g0, log)
    assert (g.counts >= g0.counts).all()  # events only add arcs
    t = to_transition(g)
    assert all(sum(row) == 1 for row in t.rational)


# --- primitivity -----------------------------------------------------------
# primitivity_witness (tests/propositions.py) is the oracle: any hub, and the
# smallest witness.  check_primitive certifies the goal hub only, and says 2.

def test_initialized_graphs_are_primitive_with_witness_two():
    t = to_transition(init_digraph(_rosters(5, 4)))
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
    else:  # not a graph init_digraph can build, primitive or not
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
    t = to_transition(init_digraph(_rosters(1, 1)))
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
    t = to_transition(init_digraph(_rosters(4, 4)))
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
    t = to_transition(init_digraph(_rosters(1, 1)))
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
    dense = np.abs(t.floats.T @ vd.values - vd.values).max()
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
    t = to_transition(init_digraph(_rosters(1, 1)))
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
    counts = np.zeros((5, 5), dtype=np.int64)  # init_digraph by hand
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
] + [pytest.param("power", (Sport.BASKETBALL, MAX_PLAYERS, 10_000, 1), 1, id="power-at-cap")])
def test_analysis_holds_no_dense_matrix(solver, game, bytes_per_entry):
    # At k = 351 nodes one k x k float64 matrix is 8 k^2 bytes (986 kB).  The
    # direct solve builds one such matrix from the arcs and drops it (a peak
    # of at most 1.5 of it); the analysis keeps the arc columns, which grow
    # with the events, not with k^2.  The power path builds nothing k x k: at
    # the player cap its peak stays below k^2 bytes, so not even a boolean
    # pattern fits.
    log = generate_random_game(*game)
    k = log.n_players + 1
    analyze_game(log, solver)  # warm caches and lazy imports
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        analysis = analyze_game(log, solver)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < bytes_per_entry * k ** 2
    assert after - before <= 4 * k ** 2  # half a float64 matrix
    assert analysis.rank.method == ("direct" if solver == "direct" else "power")
