"""The arc each event adds, read from the shipped digraph build: the
counts of ``build_digraph`` on a one-event log minus those of the same log
without the event."""

from typing import NamedTuple

import numpy as np
import pytest

from playrank.model import (
    EVENT_SPECS, GOAL, KIND_OF, OPPONENTS, ContestedMiss, Dispossess, FoulDead, FoulLeadingToGoal,
    FoulNoFreeThrows, FoulWithFreeThrows, GameLog, Icing, Intercept, NodeRef,
    Offside, Pass, PenaltyDrawnNoPPG, PenaltyDrawnPPG, Roster, RosterPlayer,
    Save, Score, Sport, Stoppage, Touch, UncontestedMissDead,
    UncontestedMissRebounded, UnforcedTurnover,
)
from playrank.pipeline import ValidationFailed, build_digraph


class Arc(NamedTuple):
    src: NodeRef
    dst: NodeRef
    count: int = 1


def arcs_for_event(sport, event) -> tuple[Arc, ...]:
    """The arcs that ``build_digraph`` adds for ``event`` alone in ``sport``.

    Each player the event names sits on a team its pair rule allows: the
    second role of an event between opponents on the second team, every
    other on the first.
    """
    spec = EVENT_SPECS[KIND_OF[type(event)]]
    ids = [getattr(event, role) for role in spec.roles]
    split = 1 if spec.pair == OPPONENTS else len(ids)
    teams = tuple(Roster(name, [RosterPlayer(pid) for pid in dict.fromkeys(side)]
                         or [RosterPlayer(filler)])
                  for name, side, filler in (("One", ids[:split], "x"), ("Two", ids[split:], "y")))
    g = build_digraph(GameLog(sport, teams, (event,)))
    added = g.counts - build_digraph(GameLog(sport, teams, ())).counts
    assert (added >= 0).all()  # rules only ever add arcs
    return tuple(Arc(g.nodes[i], g.nodes[j], int(added[i, j]))
                 for i, j in zip(*np.nonzero(added)))


# One sample instance per event type, for exhaustiveness sweeps.
_SAMPLES = {
    Pass: Pass("i", "j"),
    Dispossess: Dispossess(winner="i", loser="j"),
    Intercept: Intercept(winner="i", passer="j"),
    Touch: Touch("i"),
    UnforcedTurnover: UnforcedTurnover("i"),
    Stoppage: Stoppage(),
    ContestedMiss: ContestedMiss(shooter="i", defender="j"),
    Score: Score("i", 2),
    UncontestedMissRebounded: UncontestedMissRebounded(shooter="i", rebounder="j"),
    FoulWithFreeThrows: FoulWithFreeThrows(fouler="i", fouled="j", made=2),
    FoulNoFreeThrows: FoulNoFreeThrows(fouler="i", fouled="j"),
    UncontestedMissDead: UncontestedMissDead("i"),
    Save: Save(shooter="i", keeper="j"),
    FoulDead: FoulDead(fouler="i", fouled="j"),
    FoulLeadingToGoal: FoulLeadingToGoal(fouler="i", fouled="j"),
    Offside: Offside(passer="j", offside_player="i"),
    PenaltyDrawnNoPPG: PenaltyDrawnNoPPG(drawer="i", penalized="j"),
    PenaltyDrawnPPG: PenaltyDrawnPPG(drawer="i", penalized="j"),
    Icing: Icing(icer="i", toucher="j"),
}


@pytest.mark.parametrize("sport", list(Sport))
def test_total_over_every_legal_event(sport):
    for cls in (spec.cls for spec in EVENT_SPECS if sport in spec.sports):
        ev = _SAMPLES[cls]
        if cls is Score and sport is not Sport.BASKETBALL:
            ev = Score("i", 1)
        delta = arcs_for_event(sport, ev)
        assert isinstance(delta, tuple)
        for arc in delta:
            assert arc.count >= 1  # rules only ever add arcs


def test_sport_mismatch_rejected():
    with pytest.raises(ValidationFailed) as info:
        arcs_for_event(Sport.BASKETBALL, Save(shooter="i", keeper="j"))
    assert list(map(str, info.value.violations)) == ["event 0: save is not a basketball event"]
    with pytest.raises(ValidationFailed) as info:
        arcs_for_event(Sport.SOCCER, Icing(icer="i", toucher="j"))
    assert list(map(str, info.value.violations)) == ["event 0: icing is not a soccer event"]


# --- shared rules ---------------------------------------------------------

@pytest.mark.parametrize("sport", list(Sport))
def test_pass_reverses_direction(sport):
    assert arcs_for_event(sport, Pass("A", "B")) == (Arc("B", "A", 1),)


@pytest.mark.parametrize("sport", list(Sport))
def test_turnovers_credit_the_winner(sport):
    assert arcs_for_event(sport, Dispossess(winner="W", loser="L")) == (Arc("L", "W", 1),)
    assert arcs_for_event(sport, Intercept(winner="W", passer="P")) == (Arc("P", "W", 1),)
    assert arcs_for_event(sport, ContestedMiss(shooter="S", defender="D")) == (Arc("S", "D", 1),)


@pytest.mark.parametrize("sport", list(Sport))
def test_dead_ball_events_draw_nothing(sport):
    assert arcs_for_event(sport, Touch("X")) == ()
    assert arcs_for_event(sport, UnforcedTurnover("X")) == ()
    assert arcs_for_event(sport, Stoppage()) == ()


# --- basketball -----------------------------------------------------------

@pytest.mark.parametrize("points", [1, 2, 3, 4])
def test_basketball_score_draws_one_arc_per_point(points):
    delta = arcs_for_event(Sport.BASKETBALL, Score("F", points))
    assert delta == (Arc(GOAL, "F", points),)
    assert sum(a.count for a in delta) == points


def test_basketball_single_point_score():
    assert arcs_for_event(Sport.BASKETBALL, Score("F", 1)) == (Arc(GOAL, "F", 1),)


def test_basketball_open_miss_credits_rebounder():
    ev = UncontestedMissRebounded(shooter="S", rebounder="R")
    assert arcs_for_event(Sport.BASKETBALL, ev) == (Arc("S", "R", 1),)


def test_basketball_fouls():
    ft = FoulWithFreeThrows(fouler="F", fouled="J", made=3)
    assert arcs_for_event(Sport.BASKETBALL, ft) == (Arc(GOAL, "J", 3),)
    smart = FoulNoFreeThrows(fouler="F", fouled="J")
    assert arcs_for_event(Sport.BASKETBALL, smart) == (Arc("J", "F", 1),)


# --- soccer ---------------------------------------------------------------

def test_soccer_score_is_single_arc():
    assert arcs_for_event(Sport.SOCCER, Score("S", 1)) == (Arc(GOAL, "S", 1),)


def test_soccer_dead_ball_variants():
    assert arcs_for_event(Sport.SOCCER, UncontestedMissDead("S")) == ()
    assert arcs_for_event(Sport.SOCCER, FoulDead(fouler="F", fouled="J")) == ()


def test_soccer_save_credits_keeper():
    assert arcs_for_event(Sport.SOCCER, Save(shooter="S", keeper="K")) == (Arc("S", "K", 1),)


def test_soccer_foul_conceding_goal_credits_fouled():
    ev = FoulLeadingToGoal(fouler="F", fouled="J")
    assert arcs_for_event(Sport.SOCCER, ev) == (Arc("F", "J", 1),)


def test_soccer_offside_credits_offside_player():
    ev = Offside(passer="P", offside_player="O")
    assert arcs_for_event(Sport.SOCCER, ev) == (Arc("P", "O", 1),)


# --- hockey ---------------------------------------------------------------

def test_hockey_score_and_save():
    assert arcs_for_event(Sport.HOCKEY, Score("S", 1)) == (Arc(GOAL, "S", 1),)
    assert arcs_for_event(Sport.HOCKEY, Save(shooter="S", keeper="K")) == (Arc("S", "K", 1),)


def test_hockey_penalty_killed_credits_penalized():
    ev = PenaltyDrawnNoPPG(drawer="D", penalized="P")
    assert arcs_for_event(Sport.HOCKEY, ev) == (Arc("D", "P", 1),)


def test_hockey_penalty_converted_credits_drawer():
    ev = PenaltyDrawnPPG(drawer="D", penalized="P")
    assert arcs_for_event(Sport.HOCKEY, ev) == (Arc("P", "D", 1),)


def test_hockey_offside_credits_passer():
    # Opposite orientation from soccer, deliberately.
    ev = Offside(passer="P", offside_player="O")
    assert arcs_for_event(Sport.HOCKEY, ev) == (Arc("O", "P", 1),)


def test_hockey_icing_is_a_turnover_to_the_toucher():
    assert arcs_for_event(Sport.HOCKEY, Icing(icer="I", toucher="T")) == (Arc("I", "T", 1),)
