import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from playrank import gamelog_json
from playrank.gamelog_json import SchemaError, _check_player, parse_gamelog, render_gamelog
from playrank.model import (
    FoulWithFreeThrows, GameLog, GameMetadata, Pass, Roster, RosterPlayer, Score, Sport,
    Stoppage, Touch, validate_game,
)
from playrank.synth import generate_random_game

from propositions import render_gamelog_reference

MINIMAL = {
    "schema_version": "1",
    "sport": "soccer",
    "teams": [
        {"name": "X", "players": [{"id": "x1"}]},
        {"name": "Y", "players": [{"id": "y1"}]},
    ],
    "events": [],
}


def _doc(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return doc


def _expect_error(doc, path_fragment):
    with pytest.raises(SchemaError) as info:
        parse_gamelog(json.dumps(doc))
    assert path_fragment in info.value.path
    return info.value


def test_minimal_document():
    log = parse_gamelog(json.dumps(MINIMAL))
    assert log.sport is Sport.SOCCER
    assert log.events == ()
    assert log.metadata == GameMetadata()
    assert [t.name for t in log.teams] == ["X", "Y"]
    assert log.teams[0].players[0] == RosterPlayer("x1", "x1", False)


def test_event_parsing_and_defaults():
    doc = _doc(sport="basketball", events=[
        {"type": "pass", "passer": "x1", "receiver": "x1"},
        {"type": "score", "scorer": "y1", "points": 3},
    ])
    log = parse_gamelog(json.dumps(doc))
    assert log.events == (Pass("x1", "x1"), Score("y1", 3))


def test_schema_clean_but_invalid_log_parses_then_fails_validation():
    doc = _doc(events=[{"type": "pass", "passer": "x1", "receiver": "y1"}])
    log = parse_gamelog(json.dumps(doc))  # no SchemaError: shape is fine
    reasons = [v.reason for v in validate_game(log)]
    assert reasons == ["pass endpoints on opposite teams"]


def test_invalid_json_reported_at_root():
    with pytest.raises(SchemaError) as info:
        parse_gamelog("{nope")
    assert info.value.path == "$"


@pytest.mark.parametrize("text", [json.dumps(MINIMAL).encode(), bytearray(b"{}"), None])
def test_parse_gamelog_needs_a_str(text):
    # json.loads reads bytes too; the parser, like parse_game_text, takes text only
    with pytest.raises(TypeError, match=f"^parse_gamelog needs a str, not {type(text).__name__}$"):
        parse_gamelog(text)


def test_unknown_fields_rejected_with_paths():
    _expect_error(_doc(extra=1), "$.extra")
    doc = _doc()
    doc["teams"][0]["players"][0]["height"] = 201
    _expect_error(doc, "$.teams[0].players[0].height")
    doc = _doc(events=[{"type": "stoppage", "why": "rain"}])
    _expect_error(doc, "$.events[0].why")
    doc = _doc(metadata={"venue": "here"})
    _expect_error(doc, "$.metadata.venue")


def test_missing_required_fields():
    doc = _doc()
    del doc["sport"]
    err = _expect_error(doc, "$")
    assert "sport" in err.reason
    doc = _doc(events=[{"type": "pass", "passer": "x1"}])
    err = _expect_error(doc, "$.events[0]")
    assert "receiver" in err.reason


def test_type_errors():
    doc = _doc(events=[{"type": "score", "scorer": "x1", "points": "two"}])
    doc["sport"] = "basketball"
    _expect_error(doc, "$.events[0].points")
    doc = _doc(events=[{"type": "score", "scorer": "x1", "points": True}])
    doc["sport"] = "basketball"
    _expect_error(doc, "$.events[0].points")
    doc = _doc()
    doc["teams"][0]["players"][0]["starter"] = "yes"
    _expect_error(doc, "$.teams[0].players[0].starter")
    doc = _doc()
    doc["teams"][0]["players"][0]["id"] = ""
    _expect_error(doc, "$.teams[0].players[0].id")


def test_event_player_fields_must_be_strings():
    for value, kind in ((5, "int"), (None, "NoneType"), (["x1"], "list"), (True, "bool")):
        doc = _doc(events=[{"type": "pass", "passer": "x1", "receiver": value}])
        err = _expect_error(doc, "$.events[0].receiver")
        assert err.reason == f"expected a string, got {kind}"


def test_first_failing_event_is_reported():
    doc = _doc(events=[{"type": "stoppage"}, {"type": "touch", "player": 1},
                       {"type": "nope"}, 7, {"type": "touch"}])
    assert _expect_error(doc, "$.events[1]").path == "$.events[1].player"


def test_version_and_sport_checks():
    _expect_error(_doc(schema_version="2"), "$.schema_version")
    _expect_error(_doc(sport="cricket"), "$.sport")


def test_team_count_must_be_two():
    doc = _doc()
    doc["teams"] = doc["teams"][:1]
    _expect_error(doc, "$.teams")
    doc = _doc()
    doc["teams"][1]["players"] = []
    _expect_error(doc, "$.teams[1].players")


def test_unknown_players_skip_the_per_event_checker(monkeypatch):
    doc = json.loads(render_gamelog(generate_random_game(Sport.BASKETBALL, 8, 200, 3)))
    for team in doc["teams"]:  # every event now names players on neither roster
        for player in team["players"]:
            player["id"] += "-renamed"
    checked = []

    def spy(obj, sport, path):
        checked.append(path)
        return check(obj, sport, path)

    check = gamelog_json._check_event
    monkeypatch.setattr(gamelog_json, "_check_event", spy)
    log = parse_gamelog(json.dumps(doc))
    assert checked == [] and len(validate_game(log)) >= len(doc["events"])
    i = next(i for i, ev in enumerate(doc["events"]) if ev["type"] == "pass")
    doc["events"][i]["passer"] = 5  # a role that is no str still reaches the checker
    err = _expect_error(doc, f"$.events[{i}].passer")
    assert err.path == f"$.events[{i}].passer" and err.reason == "expected a string, got int"
    assert checked


def test_unknown_event_type():
    doc = _doc(events=[{"type": "alley_oop", "player": "x1"}])
    err = _expect_error(doc, "$.events[0].type")
    assert "alley_oop" in err.reason


def test_basketball_score_requires_points():
    doc = _doc(sport="basketball",
               events=[{"type": "score", "scorer": "x1"}])
    err = _expect_error(doc, "$.events[0]")
    assert "points" in err.reason


def test_soccer_score_forbids_points():
    doc = _doc(events=[{"type": "score", "scorer": "x1", "points": 1}])
    _expect_error(doc, "$.events[0].points")
    log = parse_gamelog(json.dumps(_doc(events=[{"type": "score", "scorer": "x1"}])))
    assert log.events == (Score("x1", 1),)


def test_render_rejects_unencodable_soccer_score():
    log = GameLog(Sport.SOCCER, (
        Roster("X", (RosterPlayer("x1"),)), Roster("Y", (RosterPlayer("y1"),))),
        (Score("x1", 3),))
    with pytest.raises(ValueError):
        render_gamelog(log)


@pytest.mark.parametrize("sport", [Sport.SOCCER, Sport.HOCKEY])
def test_render_names_the_unencodable_score(sport):
    log = GameLog(sport, (Roster("X", (RosterPlayer("A"),)), Roster("Y", (RosterPlayer("B"),))),
                  (Score("A", 2),))
    message = f"cannot encode a {sport.value} score worth 2; validate the log first"
    with pytest.raises(ValueError) as info:
        render_gamelog(log)
    assert str(info.value) == message


def test_demo_json_twin_round_trips(demo_json_path):
    text = demo_json_path.read_text(encoding="utf-8")
    log = parse_gamelog(text)
    assert parse_gamelog(render_gamelog(log)) == log
    assert log.metadata.final_score == "3-2"


def test_roster_order_survives_round_trip():
    players = tuple(RosterPlayer(f"p{i}") for i in (3, 1, 2, 9, 5))
    log = GameLog(Sport.HOCKEY, (Roster("X", players), Roster("Y", (RosterPlayer("q"),))), ())
    back = parse_gamelog(render_gamelog(log))
    assert [p.id for p in back.teams[0].players] == [f"p{i}" for i in (3, 1, 2, 9, 5)]


@settings(max_examples=50, deadline=None)
@given(
    sport=st.sampled_from(list(Sport)),
    n=st.integers(min_value=2, max_value=16),
    m=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_games_round_trip(sport, n, m, seed):
    log = generate_random_game(sport, n, m, seed)
    assert parse_gamelog(render_gamelog(log)) == log


# What only the Python API can put in a log: integer fields that are no
# int64 int or are worth other than 1 where the sport fixes them at 1, and
# roles that name no roster player, are no str or hold a quote.  (A list or
# tuple value is left out: render_gamelog writes it on one line, where
# json.dumps(indent=2) spreads it over several; the JSON value is the same.)
EDGE_WORTH = (True, 1.0, "2", 2.5, 2**70, 1, 2, 3)
EDGE_ROLES = ("H1", "A1", "ghost", 'say "hi"', 3)
EDGE_EVENTS = [*(Score("H1", w) for w in EDGE_WORTH), FoulWithFreeThrows("A1", "H1", 2**70),
               Pass("H1", "ghost"), Pass(3, "H1"), Touch('say "hi"')]


def _rendered(render, log):
    """The text ``render`` writes for ``log``, or the ValueError it raises."""
    try:
        return render(log)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=150, deadline=None)
@given(
    sport=st.sampled_from(list(Sport)),
    n=st.integers(min_value=2, max_value=31),
    m=st.integers(min_value=0, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    metadata=st.sampled_from([GameMetadata(), GameMetadata("2024-05-01", '3-"1"')]),
    extra=st.lists(st.tuples(st.integers(min_value=0), st.one_of(
        st.sampled_from(EDGE_EVENTS),
        st.builds(Score, st.sampled_from(EDGE_ROLES), st.sampled_from(EDGE_WORTH)),
        st.builds(FoulWithFreeThrows, st.sampled_from(EDGE_ROLES),
                  st.sampled_from(EDGE_ROLES), st.sampled_from(EDGE_WORTH)),
        st.builds(Pass, st.sampled_from(EDGE_ROLES), st.sampled_from(EDGE_ROLES)),
        st.builds(Stoppage))), max_size=4),
)
def test_render_gamelog_writes_what_the_stdlib_encoder_writes(sport, n, m, seed, metadata,
                                                              extra):
    # a random game, with API-built events put in among its own
    log = generate_random_game(sport, n, m, seed)
    events = list(log.events)
    for at, event in extra:
        events.insert(at % (len(events) + 1), event)
    log = GameLog(sport, log.teams, events, metadata)
    assert _rendered(render_gamelog, log) == _rendered(render_gamelog_reference, log)


@pytest.mark.parametrize("sport", list(Sport))
@pytest.mark.parametrize("event", EDGE_EVENTS, ids=repr)
def test_render_gamelog_writes_an_api_built_event_as_the_stdlib_encoder_does(sport, event):
    rosters = (Roster.from_columns("Home", ["H1", 'H"2']), Roster.from_columns("Away", ["A1"]))
    log = GameLog(sport, rosters, (Pass("H1", 'H"2'), event, Score("A1", 2)))
    assert _rendered(render_gamelog, log) == _rendered(render_gamelog_reference, log)


def test_render_includes_metadata_only_when_present():
    log = parse_gamelog(json.dumps(MINIMAL))
    assert "metadata" not in json.loads(render_gamelog(log))
    with_meta = GameLog(log.sport, log.teams, log.events,
                        GameMetadata(date="2024-01-31", final_score="2-2"))
    doc = json.loads(render_gamelog(with_meta))
    assert doc["metadata"] == {"date": "2024-01-31", "final_score": "2-2"}
    assert parse_gamelog(render_gamelog(with_meta)) == with_meta


# One way each to break a player object, as the per-player checker sees it.
PLAYER_BREAKAGES = {
    "list": lambda p: [p],
    "null": lambda p: None,
    "no id": lambda p: {k: v for k, v in p.items() if k != "id"},
    "empty id": lambda p: {**p, "id": ""},
    "int id": lambda p: {**p, "id": 3},
    "int name": lambda p: {**p, "name": 3},
    "null name": lambda p: {**p, "name": None},
    "string starter": lambda p: {**p, "starter": "yes"},
    "null starter": lambda p: {**p, "starter": None},
    "extra key": lambda p: {**p, "jersey": 23},
}


def _first_player_error(doc):
    """The first player SchemaError, checking one player object at a time."""
    for t, team in enumerate(doc["teams"]):
        for i, player in enumerate(team["players"]):
            try:
                _check_player(player, f"$.teams[{t}].players[{i}]")
            except SchemaError as exc:
                return exc.path, exc.reason
    return None


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_roster_schema_errors_match_the_per_player_checker(demo_json_path, data):
    doc = json.loads(demo_json_path.read_text(encoding="utf-8"))
    for _ in range(data.draw(st.integers(1, 3), label="players broken")):
        team = doc["teams"][data.draw(st.integers(0, 1), label="team")]["players"]
        i = data.draw(st.integers(0, len(team) - 1), label="player")
        breakage = data.draw(st.sampled_from(sorted(PLAYER_BREAKAGES)), label="breakage")
        if isinstance(team[i], dict):
            team[i] = PLAYER_BREAKAGES[breakage](team[i])
    want = _first_player_error(doc)
    assert want is not None
    with pytest.raises(SchemaError) as info:
        parse_gamelog(json.dumps(doc))
    assert (info.value.path, info.value.reason) == want


def test_roster_players_parse_from_columns(demo_json_path):
    doc = json.loads(demo_json_path.read_text(encoding="utf-8"))
    doc["teams"][0]["players"] = [
        {"id": "a", "name": "Ann", "starter": True}, {"id": "b", "name": ""},
        {"starter": False, "id": "c"}]
    log = parse_gamelog(json.dumps(doc))
    assert log.teams[0].players == (
        RosterPlayer("a", "Ann", True), RosterPlayer("b", "b"), RosterPlayer("c", "c", False))


def test_duplicate_player_ids_parse_and_fail_validation(demo_json_path):
    doc = json.loads(demo_json_path.read_text(encoding="utf-8"))
    doc["teams"][1]["players"].append({"id": doc["teams"][0]["players"][0]["id"]})
    doc["teams"][0]["players"].append({"id": doc["teams"][0]["players"][1]["id"]})
    log = parse_gamelog(json.dumps(doc))
    assert sorted(v.reason for v in validate_game(log)) == [
        "player id 'A' appears more than once", "player id 'B' appears more than once"]
