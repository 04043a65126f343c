import pickle
import typing

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from playrank.gamelog_json import parse_gamelog, render_gamelog
from playrank.model import (
    EVENT_SPECS, GOAL, MAX_PLAYERS, OPPONENTS, TEAMMATES, ContestedMiss, Event,
    FoulNoFreeThrows, FoulWithFreeThrows, GameLog, GameMetadata, Pass, Roster,
    RosterPlayer, Save, Score, Sport, UncontestedMissRebounded, Violation, _Goal,
    validate_game,
)
from playrank.pipeline import analyze_game
from playrank.playscript import parse_playscript
from playrank.render import render_report
from playrank.synth import generate_random_game

from golden import build_demo_log


def _rosters(n1=2, n2=2):
    home = Roster("Home", tuple(RosterPlayer(f"H{i}") for i in range(1, n1 + 1)))
    away = Roster("Away", tuple(RosterPlayer(f"A{i}") for i in range(1, n2 + 1)))
    return home, away


def _game(events, sport=Sport.BASKETBALL, n1=2, n2=2):
    return GameLog(sport, _rosters(n1, n2), tuple(events))


# The rows of the event types legal in each sport.
LEGAL = {sport: [spec for spec in EVENT_SPECS if sport in spec.sports] for sport in Sport}


def test_demo_log_is_valid():
    assert validate_game(build_demo_log()) == []


def test_empty_event_list_is_valid():
    assert validate_game(_game([])) == []


def test_cross_team_pass_flagged_with_index():
    v = validate_game(_game([Pass("H1", "H2"), Pass("H1", "A1")]))
    assert len(v) == 1
    assert v[0].event_index == 1
    assert v[0].reason == "pass endpoints on opposite teams"


def test_self_pass_flagged():
    v = validate_game(_game([Pass("H1", "H1")]))
    assert [x.reason for x in v] == ["pass endpoints must be distinct"]


def test_same_team_contested_miss_flagged():
    v = validate_game(_game([ContestedMiss("H1", "H2")]))
    assert "opposite teams" in v[0].reason


def test_rebound_may_come_from_either_team():
    # The one turnover-like event with no side restriction.
    ok_same = _game([UncontestedMissRebounded("H1", "H2")])
    ok_cross = _game([UncontestedMissRebounded("H1", "A1")])
    assert validate_game(ok_same) == []
    assert validate_game(ok_cross) == []


def test_unknown_player_reference():
    v = validate_game(_game([Score("nobody", 2)]))
    assert v[0].event_index == 0
    assert "unknown player 'nobody'" in v[0].reason


def test_sport_legality():
    v = validate_game(_game([Save("H1", "A1")]))  # basketball has no saves
    assert "not a basketball event" in v[0].reason
    assert validate_game(_game([Save("H1", "A1")], sport=Sport.SOCCER)) == []


@pytest.mark.parametrize("points, ok", [(0, False), (1, True), (4, True), (5, False)])
def test_basketball_score_points_range(points, ok):
    v = validate_game(_game([Score("H1", points)]))
    assert (v == []) is ok


def test_non_basketball_score_must_be_single():
    v = validate_game(_game([Score("H1", 2)], sport=Sport.HOCKEY))
    assert "always worth 1" in v[0].reason


def test_free_throw_count_must_be_positive():
    v = validate_game(_game([FoulWithFreeThrows("H1", "A1", 0)]))
    assert "made >= 1" in v[0].reason


@pytest.mark.parametrize("made, ok", [(1, True), (3, True), (4, False)])
def test_free_throw_count_range(made, ok):
    v = validate_game(_game([FoulWithFreeThrows("H1", "A1", made)]))
    assert (v == []) is ok


@pytest.mark.parametrize("event, reason", [
    (Score("H1", "2"), "score needs points to be an integer, got '2'"),
    (Score("H1", True), "score needs points to be an integer, got True"),
    (FoulWithFreeThrows("H1", "A1", "2"),
     "foul_with_free_throws needs made to be an integer, got '2'"),
    (FoulWithFreeThrows("H1", "A1", 2.0),
     "foul_with_free_throws needs made to be an integer, got 2.0"),
])
def test_non_int_integer_field_is_a_violation(event, reason):
    # Events built through the Python API never pass the parsers' type checks.
    assert validate_game(_game([event])) == [Violation(0, reason)]


def test_roster_level_violations():
    empty = GameLog(Sport.SOCCER, (Roster("X", (RosterPlayer("p"),)), Roster("Y", ())), ())
    reasons = [v.reason for v in validate_game(empty)]
    assert any("no players" in r for r in reasons)
    assert any("at least 2 players" in r for r in reasons)
    assert all(v.event_index is None for v in validate_game(empty))

    dup = GameLog(Sport.SOCCER, (
        Roster("X", (RosterPlayer("p"), RosterPlayer("p"))),
        Roster("Y", (RosterPlayer("q"),)),
    ), ())
    assert any("more than once" in v.reason for v in validate_game(dup))

    both = GameLog(Sport.SOCCER, (
        Roster("X", (RosterPlayer("p"),)),
        Roster("Y", (RosterPlayer("p"),)),
    ), ())
    assert any("more than once" in v.reason for v in validate_game(both))

    same_name = GameLog(Sport.SOCCER, (
        Roster("X", (RosterPlayer("p"),)),
        Roster("X", (RosterPlayer("q"),)),
    ), ())
    assert [str(v) for v in validate_game(same_name)] == [
        "roster: both teams are named 'X'"]


def test_an_empty_player_id_is_a_roster_violation():
    log = GameLog(Sport.HOCKEY, (Roster("X", (RosterPlayer(""), RosterPlayer("p"))),
                                 Roster("Y", (RosterPlayer("q"),))), ())
    assert validate_game(log) == [Violation(None, "team 'X' has a player with an empty id")]


def test_validate_is_pure(demo_log):
    assert validate_game(demo_log) == validate_game(demo_log)


def test_collects_all_violations_not_just_first():
    v = validate_game(_game([Pass("H1", "A1"), Score("H1", 9), Save("H1", "A1")]))
    assert len(v) == 3
    assert [x.event_index for x in v] == [0, 1, 2]


# --- the event table ----------------------------------------------------

def test_every_event_type_has_exactly_one_row():
    classes = [spec.cls for spec in EVENT_SPECS]
    assert sorted(classes, key=str) == sorted(typing.get_args(Event), key=str)
    assert len({spec.name for spec in EVENT_SPECS}) == len(EVENT_SPECS)


@pytest.mark.parametrize("spec", EVENT_SPECS, ids=lambda spec: spec.name)
def test_row_fields_match_the_dataclass(spec):
    hints = typing.get_type_hints(spec.cls)
    assert spec.roles == tuple(f for f, t in hints.items() if t is str)
    assert tuple(spec.ints) == tuple(f for f, t in hints.items() if t is int)
    assert len(spec.roles) >= 2 or spec.pair is None
    assert spec.sports


def _sample(spec, sport, ids):
    ints = {f: spec.ints[f][1] for f in spec.wire_ints(sport)}
    return spec.cls(*ids[:len(spec.roles)], **ints)


@pytest.mark.parametrize("sport, spec", [
    (sport, spec) for sport in Sport for spec in LEGAL[sport]
], ids=lambda v: v.value if isinstance(v, Sport) else v.name)
def test_each_legal_event_round_trips_and_checks_its_pair(sport, spec):
    legal_ids = ("H1", "H2") if spec.pair is TEAMMATES else ("H1", "A1")
    log = _game([_sample(spec, sport, legal_ids)], sport=sport)
    assert validate_game(log) == []
    assert parse_gamelog(render_gamelog(log)) == log

    wrong = {
        OPPONENTS: [(("H1", "H2"), f"{spec.name} endpoints must be on opposite teams")],
        TEAMMATES: [(("H1", "A1"), f"{spec.name} endpoints on opposite teams"),
                    (("H1", "H1"), f"{spec.name} endpoints must be distinct")],
        None: [],
    }[spec.pair]
    for ids, reason in wrong:
        v = validate_game(_game([_sample(spec, sport, ids)], sport=sport))
        assert [(x.event_index, x.reason) for x in v] == [(0, reason)]
    if spec.pair is None:  # no side constraint either way
        for ids in (("H1", "H2"), ("H1", "A1"), ("H1", "H1")):
            assert validate_game(_game([_sample(spec, sport, ids)], sport=sport)) == []


# --- records ------------------------------------------------------------

def _event_and_repr(spec):
    """The row's event with roles "A" and "B" and integer fields 2, and its repr."""
    values = {**dict(zip(spec.roles, "AB")), **dict.fromkeys(spec.ints, 2)}
    text = ", ".join(f"{f}={v!r}" for f, v in values.items())
    return spec.cls(**values), f"{spec.cls.__name__}({text})"


_PAT = RosterPlayer("p1", "Pat", True)
_REDS = Roster("Reds", [_PAT])
_RECORDS = [
    *map(_event_and_repr, EVENT_SPECS),
    (_PAT, "RosterPlayer(id='p1', name='Pat', starter=True)"),
    (_REDS, f"Roster(name='Reds', players=({_PAT!r},))"),
    (GameMetadata("2024-05-01", "3-2"), "GameMetadata(date='2024-05-01', final_score='3-2')"),
    (Violation(3, "bad"), "Violation(event_index=3, reason='bad')"),
    (GameLog(Sport.SOCCER, (_REDS, Roster("Blues", [RosterPlayer("q")])), [Pass("p1", "q")]),
     f"GameLog(sport={Sport.SOCCER!r}, teams=({_REDS!r}, Roster(name='Blues', players="
     "(RosterPlayer(id='q', name='q', starter=False),))), events=(Pass(passer='p1', "
     "receiver='q'),), metadata=GameMetadata(date=None, final_score=None))"),
]


@pytest.mark.parametrize("record, text", _RECORDS, ids=[type(r).__name__ for r, _ in _RECORDS])
def test_records_keep_their_documented_contract(record, text):
    cls, fields, values = type(record), record._fields, record._values()
    assert repr(record) == text
    twin = cls(*values)
    assert twin == record and hash(twin) == hash(record) and twin is not record
    assert cls(**dict(zip(fields, values))) == record
    for other in (spec.cls for spec in EVENT_SPECS):  # as Pass("A", "B") to Dispossess
        if other is not cls and len(other._fields) == len(fields):
            assert record != other(*values)
    for f in fields or ("anything",):
        with pytest.raises(AttributeError):
            setattr(record, f, 0)
        with pytest.raises(AttributeError):
            delattr(record, f)
    assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(TypeError):  # one value past the fields
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, None, None)
    with pytest.raises(TypeError):
        cls(*values, extra=0)
    if fields:
        with pytest.raises(TypeError):  # a field given twice
            cls(*values, **{fields[0]: values[0]})
        if fields[0] not in cls._defaults:
            with pytest.raises(TypeError):  # a field left out
                cls(**dict(zip(fields[1:], values[1:])))


def _parsed_with_a_ghost():
    """A parsed 300-event log plus one pass to an id on neither roster."""
    log = generate_random_game(Sport.HOCKEY, 10, 300, seed=4)
    doc = render_gamelog(log).replace('"events": [', '"events": [{"type": "pass", '
                                      '"passer": "H1", "receiver": "ghost"}, ', 1)
    return parse_gamelog(doc)


def test_gamelog_eq_hash_and_pickle_read_the_columns_only(monkeypatch):
    log = _parsed_with_a_ghost()
    twin = GameLog(log.sport, log.teams, log.events, log.metadata)  # rebuilt from objects
    assert "ghost" in log.arrays.ids

    def no_objects(self):
        raise AssertionError("built the event objects")

    monkeypatch.setattr(type(log.arrays), "to_events", no_objects)
    assert log == twin and hash(log) == hash(twin)
    copy = pickle.loads(pickle.dumps(log))
    assert copy == log and hash(copy) == hash(log) and copy.arrays.ids == log.arrays.ids
    swapped = log.arrays._replace(a=log.arrays.b, b=log.arrays.a)
    assert log != GameLog(log.sport, log.teams, swapped, log.metadata)
    assert log != GameLog(log.sport, log.teams[::-1], log.arrays, log.metadata)


def test_gamelog_takes_a_sport_name_and_refuses_an_unknown_one():
    events = (FoulNoFreeThrows("H1", "A1"),)  # a basketball event
    log = GameLog("soccer", _rosters(), events)
    assert log.sport is Sport.SOCCER and log == GameLog(Sport.SOCCER, _rosters(), events)
    assert validate_game(log) == [
        Violation(0, "foul_no_free_throws is not a soccer event")]
    with pytest.raises(ValueError, match="'curling' is not a valid Sport"):
        GameLog("curling", _rosters(), ())


@pytest.mark.parametrize("teams", [
    _rosters()[:1], _rosters() + _rosters()[:1], ("Home", "Away"), (_rosters()[0], None),
], ids=["one-roster", "three-rosters", "names", "a-none"])
def test_gamelog_refuses_teams_other_than_two_rosters(teams):
    with pytest.raises(TypeError, match="teams must be two Rosters"):
        GameLog(Sport.BASKETBALL, teams, ())


@pytest.mark.parametrize("metadata", ["3-1", None, {"final_score": "3-1"}],
                         ids=["a-score-string", "a-none", "a-dict"])
def test_gamelog_refuses_metadata_other_than_game_metadata(metadata):
    with pytest.raises(TypeError, match="metadata must be a GameMetadata"):
        GameLog(Sport.BASKETBALL, _rosters(), (Pass("H1", "H2"),), metadata)


@pytest.mark.parametrize("fields", [{"final_score": 3}, {"date": 20240501},
                                    {"final_score": b"3-1"}, {"date": ["2024-05-01"]}],
                         ids=["int-score", "int-date", "bytes-score", "list-date"])
def test_game_metadata_holds_strings_or_none(fields):
    with pytest.raises(TypeError, match=f"{next(iter(fields))} must be a str or None"):
        GameMetadata(**fields)


@pytest.mark.parametrize("players, message", [
    (["H1", "H2"], "players must be RosterPlayers, not str"),
    ([RosterPlayer("H1"), None], "players must be RosterPlayers, not NoneType"),
    ([RosterPlayer(1)], "a player id must be a str, not int"),
    ([RosterPlayer("H1", b"Ann")], "a player name must be a str, not bytes"),
    ([RosterPlayer("H1", starter=1)], "a starter must be a bool, not int"),
], ids=["ids", "a-none", "int-id", "bytes-name", "int-starter"])
def test_roster_refuses_wrong_typed_players(players, message):
    with pytest.raises(TypeError, match=message):
        Roster("H", players)


@pytest.mark.parametrize("args, message", [
    (("H", [1, 2]), "a player id must be a str, not int"),
    ((None, ["H1"]), "a team name must be a str, not NoneType"),
    (("H", ["H1", "H2"], ["Ann", None]), "a player name must be a str, not NoneType"),
    (("H", ["H1"], None, [1]), "a starter must be a bool, not int"),
    (("H", ["H1"], None, ["yes"]), "a starter must be a bool, not str"),
], ids=["int-ids", "none-team-name", "none-name", "int-starter", "str-starter"])
def test_roster_from_columns_refuses_wrong_typed_columns(args, message):
    with pytest.raises(TypeError, match=message):
        Roster.from_columns(*args)


@pytest.mark.parametrize("args, message", [
    (("Q", ["Q1", "Q2"], ["x"]), "1 player names for 2 player ids"),
    (("R", ["R1", "R2"], None, [True]), "1 starters for 2 player ids"),
    (("S", ["S1"], ["x", "y"]), "2 player names for 1 player ids"),
], ids=["short-names", "short-starters", "long-names"])
def test_roster_from_columns_refuses_a_column_of_another_length(args, message):
    with pytest.raises(ValueError, match=message):
        Roster.from_columns(*args)


@pytest.mark.parametrize("log", [
    "#team Reds A B\n#team Blues D E\nA -> B\n", None, build_demo_log().arrays,
    build_demo_log().teams,
], ids=["text", "none", "event-arrays", "rosters"])
def test_analyze_game_refuses_anything_but_a_game_log(log):
    with pytest.raises(TypeError, match="analyze_game needs a GameLog, not"):
        analyze_game(log)


def test_rosters_stay_columns(monkeypatch, demo_playscript_path, demo_json_path):
    def no_objects(self, *args, **kwargs):
        raise AssertionError("built a RosterPlayer")

    monkeypatch.setattr(RosterPlayer, "__init__", no_objects)
    logs = [parse_gamelog(demo_json_path.read_text(encoding="utf-8")),
            parse_playscript(demo_playscript_path.read_text(encoding="utf-8")),
            generate_random_game(Sport.BASKETBALL, 350, 2_000, seed=2)]
    for log in logs:
        analysis = analyze_game(log)
        render_report(analysis.report, analysis.teams, "json")
    wide = logs[2].teams[0]
    columns = Roster.from_columns(wide.name, list(wide.ids), wide.names, wide.starters)
    assert columns == wide and hash(columns) == hash(wide)
    copy = pickle.loads(pickle.dumps(wide))
    assert copy == wide and hash(copy) == hash(wide)
    assert (copy.ids, copy.names, copy.starters) == (wide.ids, wide.names, wide.starters)

    monkeypatch.undo()
    objects = Roster("Reds", [RosterPlayer("p1", "Pat", True), RosterPlayer("p2")])
    columns = Roster.from_columns("Reds", ["p1", "p2"], ["Pat", ""], [True, False])
    assert columns == objects and hash(columns) == hash(objects)
    assert repr(columns) == repr(objects)
    assert pickle.dumps(columns) == pickle.dumps(objects)
    assert columns.players == (RosterPlayer("p1", "Pat", True), RosterPlayer("p2", "p2", False))
    assert Roster(wide.name, wide.players) == wide
    assert Roster.from_columns("X", ["a", "b"]).players == (RosterPlayer("a"), RosterPlayer("b"))
    assert objects != Roster.from_columns("Reds", ["p1", "p2"], ["Pat", ""], [True, True])


def test_gamelogs_that_validate_differently_are_unequal():
    # True == 1 in Python, but True is no int for the points field
    ones, trues = (_game([Score("H1", v), Pass("H1", "H2")]) for v in (1, True))
    assert validate_game(ones) == [] and validate_game(trues) != []
    assert ones != trues
    assert ones == _game([Score("H1", 1), Pass("H1", "H2")])
    assert hash(trues) == hash(_game([Score("H1", True), Pass("H1", "H2")]))


def test_goal_is_one_object_named_goal():
    assert _Goal() is GOAL and repr(GOAL) == "GOAL"


# --- generator ----------------------------------------------------------

def test_generator_deterministic():
    a = generate_random_game(Sport.BASKETBALL, 10, 200, seed=1)
    b = generate_random_game(Sport.BASKETBALL, 10, 200, seed=1)
    assert a == b


def test_generator_empty_game():
    log = generate_random_game(Sport.SOCCER, 22, 0, seed=7)
    assert log.events == ()
    assert validate_game(log) == []
    assert log.n_players == 22


def test_generator_hockey_500_events_validates():
    log = generate_random_game(Sport.HOCKEY, 12, 500, seed=3)
    assert len(log.events) == 500
    assert validate_game(log) == []


def test_generator_rejects_tiny_rosters():
    with pytest.raises(ValueError):
        generate_random_game(Sport.BASKETBALL, 1, 10, seed=0)


def test_generator_rejects_an_unknown_sport_with_a_value_error():
    with pytest.raises(ValueError, match="'curling' is not a valid Sport"):
        generate_random_game("curling", 6, 5, seed=1)
    assert generate_random_game("soccer", 6, 5, seed=1) == generate_random_game(
        Sport.SOCCER, 6, 5, seed=1)


def test_generator_stops_at_the_player_cap():
    assert validate_game(generate_random_game(Sport.SOCCER, MAX_PLAYERS, 5, seed=1)) == []
    with pytest.raises(ValueError, match=f"need 2 to {MAX_PLAYERS} players, got {MAX_PLAYERS + 1}"):
        generate_random_game(Sport.SOCCER, MAX_PLAYERS + 1, 5, seed=1)


def test_generator_rejects_a_negative_event_count():
    with pytest.raises(ValueError, match="n_events must be >= 0, got -1"):
        generate_random_game(Sport.BASKETBALL, 4, -1, seed=0)


def test_generator_one_on_one_has_no_pass_events():
    log = generate_random_game(Sport.SOCCER, 2, 300, seed=5)
    assert validate_game(log) == []
    assert not any(isinstance(e, Pass) for e in log.events)


@pytest.mark.parametrize("sport", list(Sport), ids=lambda s: s.value)
def test_generator_kind_mix_follows_the_weights(sport):
    n = 30_000
    log = generate_random_game(sport, 10, n, seed=11)
    counts = np.bincount(log.arrays.kind, minlength=len(EVENT_SPECS))
    weight = np.array([spec.sports.get(sport, (None, 0))[1] for spec in EVENT_SPECS], float)
    share = weight / weight.sum()
    sigma = np.sqrt(n * share * (1 - share))
    assert (counts[share == 0] == 0).all()
    assert (abs(counts - n * share) <= 5 * sigma).all(), (counts, n * share, sigma)


@pytest.mark.parametrize("sport", list(Sport), ids=lambda s: s.value)
def test_generator_draws_every_player_in_both_roles(sport):
    arr = generate_random_game(sport, 10, 2_000, seed=6).arrays
    assert set(arr.a.tolist()) - {-1} == set(range(10))
    assert set(arr.b.tolist()) - {-1} == set(range(10))


@settings(max_examples=60, deadline=None)
@given(
    sport=st.sampled_from(list(Sport)),
    n=st.integers(min_value=2, max_value=24),
    m=st.integers(min_value=0, max_value=80),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_generated_games_always_validate(sport, n, m, seed):
    log = generate_random_game(sport, n, m, seed)
    assert validate_game(log) == []
    assert len(log.events) == m
    assert log.n_players == n
