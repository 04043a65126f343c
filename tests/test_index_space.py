"""One index space from text to digraph.

``EventArrays.a``/``b`` are node indices whichever producer made them: the
players in roster order, team 1 then team 2, then ids on neither roster
from n up, and -1 for a role the event does not have.  The expected schema
errors and violation lists below are those of the reader that interned ids
in first-seen order, so the fast path and its fallback keep them.
"""

import json

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from playrank.gamelog_json import SchemaError, parse_gamelog, render_gamelog
from playrank.model import (
    EVENT_SPECS, KIND_OF, Dispossess, EventArrays, GameLog, Pass, Roster, RosterPlayer, Score,
    Sport, Stoppage, Touch, UnforcedTurnover, Violation, validate_game,
)
from playrank.pipeline import ValidationFailed, build_digraph
from playrank.playscript import parse_playscript
from playrank.synth import generate_random_game

BASE = {
    "schema_version": "1",
    "sport": "basketball",
    "teams": [{"name": "X", "players": [{"id": "x1"}, {"id": "x2"}]},
              {"name": "Y", "players": [{"id": "y1"}, {"id": "y2"}]}],
    "events": [{"type": "pass", "passer": "x1", "receiver": "x2"},
               {"type": "score", "scorer": "y1", "points": 2}],
}


def _doc(**changes):
    doc = json.loads(json.dumps(BASE))
    doc.update(changes)
    return doc


def _with_event(i, event):
    doc = _doc()
    doc["events"][i] = event
    return doc


def _parse(doc):
    return parse_gamelog(json.dumps(doc))


def _same_arrays(x, y):
    for column in ("kind", "a", "b", "weight"):
        assert np.array_equal(getattr(x, column), getattr(y, column)), column
    assert (x.ids, x.odd) == (y.ids, y.odd)


def test_roles_are_nodes_in_roster_order():
    arr = _parse(_doc(events=[
        {"type": "pass", "passer": "x2", "receiver": "x1"},
        {"type": "score", "scorer": "y2", "points": 3},
        {"type": "dispossess", "winner": "x1", "loser": "y1"},
        {"type": "stoppage"},
        {"type": "touch", "player": "ghost"},
    ])).arrays
    assert arr.ids == ("x1", "x2", "y1", "y2", "ghost")
    assert arr.kind.tolist() == [KIND_OF[c] for c in (Pass, Score, Dispossess, Stoppage, Touch)]
    assert arr.a.tolist() == [1, 3, 0, -1, 4]
    assert arr.b.tolist() == [0, -1, 2, -1, -1]
    assert arr.weight.tolist() == [1, 3, 1, 1, 1]


def test_playscript_writes_nodes_in_roster_order():
    log = parse_playscript("#team R a b\n#team B c d\na -> b -> c -> G:2\nd -> 0\n")
    arr = log.arrays
    assert arr.ids == ("a", "b", "c", "d")
    assert arr.kind.tolist() == [KIND_OF[c] for c in (Pass, Dispossess, Score, UnforcedTurnover)]
    assert arr.a.tolist() == [0, 2, 2, 3]  # the steal's winner is c
    assert arr.b.tolist() == [1, 1, -1, -1]
    assert arr.weight.tolist() == [1, 1, 2, 1]
    _same_arrays(parse_gamelog(render_gamelog(log)).arrays, arr)


@settings(max_examples=40, deadline=None)
@given(
    sport=st.sampled_from(list(Sport)),
    n=st.integers(min_value=2, max_value=14),
    m=st.integers(min_value=0, max_value=80),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_every_producer_writes_the_same_columns(sport, n, m, seed):
    log = generate_random_game(sport, n, m, seed)
    parsed = parse_gamelog(render_gamelog(log))
    api_built = GameLog(log.sport, log.teams, log.events)
    for other in (parsed, api_built):
        _same_arrays(other.arrays, log.arrays)


@settings(max_examples=40, deadline=None)
@given(
    sport=st.sampled_from(list(Sport)),
    n=st.integers(min_value=2, max_value=14),
    m=st.integers(min_value=1, max_value=80),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shuffle=st.randoms(use_true_random=False),
)
def test_key_order_inside_events_does_not_matter(sport, n, m, seed, shuffle):
    log = generate_random_game(sport, n, m, seed)
    doc = json.loads(render_gamelog(log))
    doc["events"] = [dict(shuffle.sample(list(ev.items()), len(ev))) for ev in doc["events"]]
    shuffled = _parse(doc)
    _same_arrays(shuffled.arrays, log.arrays)
    assert np.array_equal(build_digraph(shuffled).counts, build_digraph(log).counts)


# One schema fault per case: (event index, event object, (path, reason)).
SCHEMA_FAULTS = {
    "missing field": (0, {"type": "pass", "passer": "x1"},
                      ("$.events[0]", "missing required field 'receiver'")),
    "extra field": (0, {"type": "pass", "passer": "x1", "receiver": "x2", "note": 1},
                    ("$.events[0].note", "unknown field")),
    "int role": (0, {"type": "pass", "passer": "x1", "receiver": 5},
                 ("$.events[0].receiver", "expected a string, got int")),
    "list role": (0, {"type": "pass", "passer": "x1", "receiver": ["x2"]},
                  ("$.events[0].receiver", "expected a string, got list")),
    "null role": (0, {"type": "pass", "passer": None, "receiver": "x2"},
                  ("$.events[0].passer", "expected a string, got NoneType")),
    "bool points": (1, {"type": "score", "scorer": "y1", "points": True},
                    ("$.events[1].points", "expected an integer, got bool")),
    "float points": (1, {"type": "score", "scorer": "y1", "points": 2.0},
                     ("$.events[1].points", "expected an integer, got float")),
}


@pytest.mark.parametrize("fault", sorted(SCHEMA_FAULTS))
def test_each_schema_fault_raises_the_per_event_checkers_error(fault):
    i, event, want = SCHEMA_FAULTS[fault]
    with pytest.raises(SchemaError) as info:
        _parse(_with_event(i, event))
    assert (info.value.path, info.value.reason) == want


def test_an_integer_beyond_int64_parses_and_fails_validation():
    log = _parse(_with_event(1, {"type": "score", "scorer": "y1", "points": 2**70}))
    assert log.arrays.odd == {1: 2**70}
    assert [str(v) for v in validate_game(log)] == [
        "event 1: score needs points >= 1 and <= 4, got 1180591620717411303424"]


def test_unknown_ids_are_appended_after_the_players():
    log = _parse(_doc(events=[
        {"type": "dispossess", "winner": "g1", "loser": "x1"},
        {"type": "pass", "passer": "x1", "receiver": "g2"},
        {"type": "touch", "player": "g1"},
        {"type": "intercept", "winner": "g2", "passer": "g3"},
    ]))
    arr = log.arrays
    assert arr.ids[:4] == ("x1", "x2", "y1", "y2")
    assert sorted(arr.ids[4:]) == ["g1", "g2", "g3"]
    assert [arr.ids[i] for i in arr.a.tolist()] == ["g1", "x1", "g1", "g2"]
    assert [arr.ids[i] for i in arr.b.tolist()[:2] + arr.b.tolist()[3:]] == ["x1", "g2", "g3"]
    assert [str(v) for v in validate_game(log)] == [
        "event 0: dispossess references unknown player 'g1'",
        "event 1: pass references unknown player 'g2'",
        "event 2: touch references unknown player 'g1'",
        "event 3: intercept references unknown player 'g2'",
        "event 3: intercept references unknown player 'g3'",
    ]


def test_a_repeated_roster_id_keeps_its_first_node():
    log = _parse(_doc(
        teams=[{"name": "X", "players": [{"id": "x1"}, {"id": "y1"}]},
               {"name": "Y", "players": [{"id": "y1"}, {"id": "x1"}]}],
        events=[{"type": "pass", "passer": "x1", "receiver": "y1"},
                {"type": "dispossess", "winner": "y1", "loser": "x1"},
                {"type": "score", "scorer": "y1", "points": 9}]))
    assert log.arrays.ids == ("x1", "y1", "y1", "x1")
    assert log.arrays.a.tolist() == [0, 1, 1]
    assert [str(v) for v in validate_game(log)] == [
        "roster: player id 'y1' appears more than once",
        "roster: player id 'x1' appears more than once",
        "event 1: dispossess endpoints must be on opposite teams",
        "event 2: score needs points >= 1 and <= 4, got 9",
    ]


@pytest.mark.parametrize("event", [Score("ghost", 2), Pass("ghost", "H1"), Touch("ghost")])
def test_build_digraph_refuses_an_appended_node(event):
    rosters = (Roster("Home", (RosterPlayer("H1"), RosterPlayer("H2"))),
               Roster("Away", (RosterPlayer("A1"), RosterPlayer("A2"))))
    log = GameLog(Sport.BASKETBALL, rosters, (Pass("H1", "H2"), event))
    n = log.n_players  # the goal's node, which the appended id shares
    assert log.arrays.ids[n] == "ghost" and log.arrays.a[1] == n
    with pytest.raises(ValidationFailed) as info:
        build_digraph(log)
    assert info.value.violations == validate_game(log) == [
        Violation(1, f"{EVENT_SPECS[KIND_OF[type(event)]].name} references unknown player 'ghost'")]


# --- one way in: GameLog(sport, teams, events, metadata) --------------------

ROSTERS = (Roster("Home", (RosterPlayer("H1"), RosterPlayer("H2"))),
           Roster("Away", (RosterPlayer("A1"), RosterPlayer("A2"))))


def test_an_object_that_is_no_event_is_a_type_error_naming_it():
    stranger = object()
    with pytest.raises(TypeError, match=f"{stranger!r} is not an event"):
        GameLog(Sport.BASKETBALL, ROSTERS, [Pass("H1", "H2"), stranger])


def test_an_unhashable_role_fails_in_the_constructor():
    with pytest.raises(TypeError, match="unhashable"):
        GameLog(Sport.BASKETBALL, ROSTERS, [Pass("A", ["B"])])


PRODUCERS = {
    "json": lambda: parse_gamelog(json.dumps(BASE)),
    "playscript": lambda: parse_playscript("#team R a b\n#team B c d\na -> b -> c -> G:2\n"),
    "synth": lambda: generate_random_game(Sport.HOCKEY, 6, 30, seed=3),
}


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_a_produced_log_holds_the_columns_its_producer_built(producer, monkeypatch):
    built = []
    for name in ("read", "from_rows"):
        def spy(cls, *args, make=getattr(EventArrays, name), **kwargs):
            built.append(make(*args, **kwargs))
            return built[-1]
        monkeypatch.setattr(EventArrays, name, classmethod(spy))
    log = PRODUCERS[producer]()
    assert len(built) == 1 and log.arrays is built[0]


def test_event_objects_come_back_as_they_went_in():
    objs = (Pass("H1", "H2"), Score("H1", 2.5), Score("A1", "2"), Score("H2", 2**70),
            Touch(7), Dispossess("A1", None), Pass("H2", "ghost"))
    log = GameLog(Sport.BASKETBALL, ROSTERS, iter(objs))
    assert log.events == objs
    assert [str(v) for v in validate_game(log)][:2] == [
        "event 1: score needs points to be an integer, got 2.5",
        "event 2: score needs points to be an integer, got '2'"]
