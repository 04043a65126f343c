"""Game logs: sports, events, the event table, rosters, and validation.

A GameLog is the unit of input for everything downstream: an ordered list of
events between two fixed rosters.  Events reference players by caller-supplied
id strings; the library never invents identifiers.  All types are immutable
after construction and validation is a pure function that collects every
violation instead of failing fast, so a hand-transcribed log can be cleaned up
in one pass.

EVENT_SPECS holds one row per event type with everything the pipeline knows
about it: wire name, player roles, pair rule, integer bounds, and per sport
its arc and synthesizer weight; KIND_TABLE holds the same facts per sport as
columns.  A log keeps its events as EventArrays, which validation and the
digraph read against KIND_TABLE without building an object per event.

One index space runs from input to digraph: node i is the i-th roster
player, team 1 then team 2, and the goal is node n.  Every producer of
EventArrays reads the rosters first and writes each role as its node; an
id on neither roster is appended from n up, for validation to report.
"""

from __future__ import annotations

from enum import Enum
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import NamedTuple, Sequence, Union

import numpy as np


class Sport(str, Enum):
    BASKETBALL = "basketball"
    SOCCER = "soccer"
    HOCKEY = "hockey"


class ParseError(Exception):
    """A document that no parser can read as a game log: the base of
    gamelog_json.SchemaError and playscript.PlayscriptError."""


class _RecordType(type):
    """Makes each annotated field of a Record class a slot; a value given
    in the class body becomes that field's default.  A class declared with
    ``by_identity=True`` keeps a ``__dict__`` (for cached properties) and
    is compared and hashed by identity instead."""

    def __new__(mcls, name, bases, ns, by_identity=False):
        fields = tuple(ns.get("__annotations__", ()))
        ns["_defaults"] = {f: ns.pop(f) for f in fields if f in ns}
        ns.setdefault("_fields", fields)
        if by_identity:
            ns.update(__eq__=object.__eq__, __hash__=object.__hash__)
        else:
            ns.setdefault("__slots__", fields)
        return super().__new__(mcls, name, bases, ns)


_set = object.__setattr__  # sets a slot despite Record's __setattr__


class Record(metaclass=_RecordType):
    """Immutable record: positional or keyword construction, the
    ``Name(field=value, ...)`` repr, and == and hash over the fields that
    only ever match a record of the same class."""

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # bind keywords and defaults by name
            values = {**self._defaults, **kwargs, **dict(zip(fields, args))}
            if (len(args) > len(fields) or values.keys() != set(fields)
                    or kwargs.keys() & set(fields[:len(args)])):
                raise TypeError(f"{type(self).__name__} takes the fields {fields}, "
                                f"got {args} and {kwargs}")
            args = [values[f] for f in fields]
        for f, value in zip(fields, args):
            _set(self, f, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    _key = _values  # what == and hash read

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, *_value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


# ---------------------------------------------------------------------------
# The event table
# ---------------------------------------------------------------------------

class _Goal:
    """Singleton marker for the goal node."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "GOAL"


GOAL = _Goal()

NodeRef = Union[str, _Goal]

# Pair rules for an event's first two roles.
TEAMMATES = "teammates"  # two distinct players on one team
OPPONENTS = "opponents"  # one player from each team

# (src role or GOAL, dst role, weight field or constant)
ArcTemplate = tuple[Union[str, _Goal], str, Union[str, int]]


class EventSpec(NamedTuple):
    """Everything the pipeline knows about one event type.

    ``cls`` is the event class: a Record with a str field per role, then an
    int field per integer field.  ``roles`` are the fields holding player
    ids, in wire order; ``pair`` (TEAMMATES, OPPONENTS or None) constrains
    the first two.  ``ints`` maps each integer field to its inclusive
    bounds.  ``sports`` has, per sport where the event is legal, the arc it
    adds there (None for a dead ball) and the synthesizer's default weight.
    An integer field that a sport's arc does not weight by is fixed at 1
    there and left off the wire: soccer and hockey goals always count once.
    """

    cls: type
    name: str
    roles: tuple[str, ...]
    pair: str | None
    ints: dict[str, tuple[int, int]]
    sports: dict[Sport, tuple[ArcTemplate | None, float]]

    def wire_ints(self, sport: Sport) -> tuple[str, ...]:
        """Integer fields the event carries in ``sport``."""
        arc = self.sports.get(sport, (None,))[0]
        return tuple(f for f in self.ints if arc is None or arc[2] == f)


def _row(cls_name: str, doc: str, name: str, roles: tuple[str, ...], pair: str | None,
         ints: dict[str, tuple[int, int]], sports: dict, **defaults) -> EventSpec:
    fields = {**dict.fromkeys(roles, str), **dict.fromkeys(ints, int)}
    cls = _RecordType(cls_name, (Record,), {
        "__doc__": doc, "__module__": __name__, "__annotations__": fields, **defaults})
    return EventSpec(cls, name, roles, pair, ints, sports)


_B, _S, _H = Sport.BASKETBALL, Sport.SOCCER, Sport.HOCKEY


def _everywhere(arc: ArcTemplate | None, b: float, s: float, h: float):
    return {_B: (arc, b), _S: (arc, s), _H: (arc, h)}


# The direction convention makes rank flow toward playmakers: a completed
# pass credits the passer (arc receiver -> passer), losing the ball credits
# whoever took it, and scoring pulls arcs out of the goal node (one per point
# in basketball).  Offside is credited to the offside player in soccer and to
# the passer in hockey; both are kept exactly as specified for their sport.
EVENT_SPECS: tuple[EventSpec, ...] = (
    _row("Pass", "Completed pass between teammates.",
         "pass", ("passer", "receiver"), TEAMMATES, {},
         _everywhere(("receiver", "passer", 1), 50, 55, 50)),
    _row("Dispossess", "Defender strips possession (steal, tackle, deflection out of play).",
         "dispossess", ("winner", "loser"), OPPONENTS, {},
         _everywhere(("loser", "winner", 1), 6, 8, 7)),
    _row("Intercept", "Defender picks off a pass; credited like a dispossession.",
         "intercept", ("winner", "passer"), OPPONENTS, {},
         _everywhere(("passer", "winner", 1), 5, 6, 6)),
    _row("Touch", "Incidental contact with the ball/puck without possession.",
         "touch", ("player",), None, {}, _everywhere(None, 3, 4, 3)),
    _row("UnforcedTurnover", "Possession lost with no defender earning it; play goes dead.",
         "unforced_turnover", ("player",), None, {}, _everywhere(None, 4, 4, 4)),
    _row("Stoppage", "Dead-ball interruption unrelated to play (injury, interference...).",
         "stoppage", (), None, {}, _everywhere(None, 3, 2, 3)),
    _row("ContestedMiss", "Missed shot taken under pressure from a defender (includes blocks).",
         "contested_miss", ("shooter", "defender"), OPPONENTS, {},
         _everywhere(("shooter", "defender", 1), 8, 4, 6)),
    _row("Score", "Goal or made basket; only basketball's carries points (1..4), else 1.",
         "score", ("scorer",), None, {"points": (1, 4)}, {
             _B: ((GOAL, "scorer", "points"), 10),
             _S: ((GOAL, "scorer", 1), 2),
             _H: ((GOAL, "scorer", 1), 3)}, points=1),
    _row("UncontestedMissRebounded", "Basketball: open miss; either team's rebounder is credited.",
         "uncontested_miss_rebounded", ("shooter", "rebounder"), None, {},
         {_B: (("shooter", "rebounder", 1), 6)}),
    _row("FoulWithFreeThrows", "Basketball: foul; the fouled player makes ``made`` (1..3) shots.",
         "foul_with_free_throws", ("fouler", "fouled"), OPPONENTS, {"made": (1, 3)},
         {_B: ((GOAL, "fouled", "made"), 3)}),
    _row("FoulNoFreeThrows", "Basketball: foul conceding no points; credited to the fouler.",
         "foul_no_free_throws", ("fouler", "fouled"), OPPONENTS, {},
         {_B: (("fouled", "fouler", 1), 2)}),  # smart foul
    _row("UncontestedMissDead", "Soccer/hockey: unpressured miss; play is dead, nobody credited.",
         "uncontested_miss_dead", ("shooter",), None, {}, {_S: (None, 3), _H: (None, 3)}),
    _row("Save", "Soccer/hockey: shot stopped by the opposing goalkeeper.",
         "save", ("shooter", "keeper"), OPPONENTS, {},
         {_S: (("shooter", "keeper", 1), 4), _H: (("shooter", "keeper", 1), 8)}),
    _row("FoulDead", "Soccer: foul that leads to nothing; play is dead.",
         "foul_dead", ("fouler", "fouled"), OPPONENTS, {}, {_S: (None, 5)}),
    _row("FoulLeadingToGoal", "Soccer: foul conceding a penalty or free-kick goal.",
         "foul_leading_to_goal", ("fouler", "fouled"), OPPONENTS, {},
         {_S: (("fouler", "fouled", 1), 1)}),  # smart draw
    _row("Offside", "Pass to a teammate caught offside; the credited side differs by sport.",
         "offside", ("passer", "offside_player"), None, {}, {
             _S: (("passer", "offside_player", 1), 2),
             _H: (("offside_player", "passer", 1), 2)}),
    _row("PenaltyDrawnNoPPG", "Hockey: penalty drawn but killed off.",
         "penalty_drawn_no_ppg", ("drawer", "penalized"), OPPONENTS, {},
         {_H: (("drawer", "penalized", 1), 2)}),  # smart penalty
    _row("PenaltyDrawnPPG", "Hockey: penalty drawn and converted on the power play.",
         "penalty_drawn_ppg", ("drawer", "penalized"), OPPONENTS, {},
         {_H: (("penalized", "drawer", 1), 1)}),  # smart draw
    _row("Icing", "Hockey: icing touched up by a player of the other team.",
         "icing", ("icer", "toucher"), None, {},
         {_H: (("icer", "toucher", 1), 2)}),  # a turnover to the toucher
)

# The event classes, one per row.
(Pass, Dispossess, Intercept, Touch, UnforcedTurnover, Stoppage, ContestedMiss, Score,
 UncontestedMissRebounded, FoulWithFreeThrows, FoulNoFreeThrows, UncontestedMissDead, Save,
 FoulDead, FoulLeadingToGoal, Offside, PenaltyDrawnNoPPG, PenaltyDrawnPPG,
 Icing) = (spec.cls for spec in EVENT_SPECS)
Event = Union[tuple(spec.cls for spec in EVENT_SPECS)]


# ---------------------------------------------------------------------------
# Event columns
# ---------------------------------------------------------------------------

# An event's kind is its row in EVENT_SPECS.
KIND_OF: dict[type, int] = {spec.cls: k for k, spec in enumerate(EVENT_SPECS)}


def kind_table(sport: Sport) -> np.ndarray:
    """What validation and the digraph read of each kind in ``sport``: a
    column per kind (its EVENT_SPECS row) and the rows legal (0 or 1), pair
    (0 none, 1 teammates, 2 opponents), lo and hi (the integer field's
    bounds; 1..1 where the sport carries none), src and dst (the arc's ends:
    0 first role, 1 second, 2 goal), by_field and constant (its weight: the
    integer field where by_field, else constant, 0 for a dead ball, which
    adds no arc)."""
    out = []
    for spec in EVENT_SPECS:
        src, dst, weight = spec.sports.get(sport, (None,))[0] or (GOAL, GOAL, 0)
        out.append((sport in spec.sports, {None: 0, TEAMMATES: 1, OPPONENTS: 2}[spec.pair],
                    *next((spec.ints[f] for f in spec.wire_ints(sport)), (1, 1)),
                    *(2 if end is GOAL else spec.roles.index(end) for end in (src, dst)),
                    *((1, 0) if isinstance(weight, str) else (0, weight))))
    return np.array(out).T


KIND_TABLE: dict[Sport, np.ndarray] = {sport: kind_table(sport) for sport in Sport}


def _int64_column(values: list) -> tuple[list, dict]:
    """``values`` with each that is no int64 set to 0, and those by position."""
    if set(map(type, values)) <= {int} and -2**63 <= min(values) <= max(values) < 2**63:
        return values, {}
    odd = {i: v for i, v in enumerate(values) if type(v) is not int or not -2**63 <= v < 2**63}
    return [0 if i in odd else v for i, v in enumerate(values)], odd


class NodeIndex(dict):
    """Player id -> node for one game: the roster ids, team 1 then team 2 (a
    repeated id keeps its first node), then any other key, appended to ``ids``."""

    def __init__(self, teams):
        self.ids = [pid for roster in teams for pid in roster.ids]
        super().__init__(zip(reversed(self.ids), range(len(self.ids) - 1, -1, -1)))

    def __missing__(self, key):
        self[key] = node = len(self.ids)
        self.ids.append(key)
        return node


class EventArrays(NamedTuple):
    """A game's events as columns; row i is event i.

    ``kind`` is the event's row in EVENT_SPECS; ``a`` and ``b`` are the
    nodes of its first and second role (-1 for none), which ``ids`` names:
    the roster ids, team 1 then team 2, then any ids on neither roster.
    ``weight`` is its integer field (points or made; 1 for a type without
    one, 0 for one that is no int64, which ``odd`` keeps by row: only the
    Python API or a huge JSON number makes one).
    """

    kind: np.ndarray
    a: np.ndarray
    b: np.ndarray
    weight: np.ndarray
    ids: tuple
    odd: dict

    @classmethod
    def read(cls, items: Sequence, kind: np.ndarray, teams,
             sport: Sport | None = None) -> EventArrays:
        """Read ``items`` kind by kind via a NodeIndex: the fields of each
        kind's EVENT_SPECS row, as attributes of event objects, or, given
        ``sport``, as keys of wire dicts, which carry only ``wire_ints(sport)``."""
        getter = itemgetter if sport else attrgetter
        index = NodeIndex(teams)
        order = kind.astype(np.uint8).argsort(kind="stable")  # by kind, a radix sort
        present = np.flatnonzero(np.bincount(kind))
        starts = np.searchsorted(kind[order], present[1:])
        parts = ([np.empty(0, np.intp)], [np.empty(0, np.intp)])  # a and b, kind by kind
        weight = np.ones(len(kind), dtype=np.int64)
        odd = {}
        for k, rows in zip(present.tolist(), np.split(order, starts)):
            group = list(map(items.__getitem__, rows.tolist()))
            spec = EVENT_SPECS[k]
            for part, f in zip(parts, (*spec.roles, None, None)):
                part.append(np.fromiter(map(index.__getitem__, map(getter(f), group)), np.intp,
                                        len(group)) if f else np.full(len(group), -1))
            for f in spec.wire_ints(sport) if sport else spec.ints:  # at most one
                weight[rows], bad = _int64_column(list(map(getter(f), group)))
                odd.update((int(rows[i]), v) for i, v in bad.items())
        a, b = np.empty((2, len(kind)), dtype=np.intp)
        a[order], b[order] = map(np.concatenate, parts)
        return cls(kind, a, b, weight, tuple(index.ids), odd)

    @classmethod
    def from_rows(cls, rows: list[tuple], ids: tuple) -> EventArrays:
        """Pack (kind, first node, second node, integer field) rows."""
        kind, a, b, weight = np.array(rows, dtype=np.int64).reshape(-1, 4).T.copy()
        return cls(kind, a, b, weight, ids, {})

    def to_events(self) -> tuple[Event, ...]:
        ids = self.ids + (None,)
        out = []
        for i, (k, a, b, w) in enumerate(zip(self.kind.tolist(), self.a.tolist(),
                                             self.b.tolist(), self.weight.tolist())):
            spec = EVENT_SPECS[k]
            args = (ids[a], ids[b])[:len(spec.roles)]
            out.append(spec.cls(*args, self.odd.get(i, w)) if spec.ints else spec.cls(*args))
        return tuple(out)


# ---------------------------------------------------------------------------
# Rosters and game logs
# ---------------------------------------------------------------------------

# The most players a game may have, as the direct solve's fallback, the LU, is
# dense and cubic: at 2,000 players and 10,000 events both solvers work on the
# arcs (k^2 > arcs, k^3 > HUB_CROSSOVER arcs), so nothing is k x k and `rank
# --solver both` peaks at 35 MB RSS in 0.14-0.17 s (the hub solve 2-3 ms), as
# `--solver power` does; the LU made it 101 MB and 0.3 s, and still would for
# a refused hub vector (BLAS on one thread).
MAX_PLAYERS = 2_000


class RosterPlayer(Record):
    id: str
    name: str = ""
    starter: bool = False

    def __init__(self, id: str, name: str = "", starter: bool = False):
        _set(self, "id", id)
        _set(self, "name", name or id)
        _set(self, "starter", starter)


class Roster(Record):
    """One team.  Player order is significant: it fixes matrix row/column
    order for the whole pipeline and must survive serialization.  Players
    are held as the columns ``ids``, ``names`` and ``starters``; ``players``
    rebuilds their objects on each call, and ==, hash and pickle read columns.
    A player that is no RosterPlayer, a team name, id or player name that is
    no str, or a starter that is no bool is a TypeError; names or starters
    not one per id, a ValueError."""

    __slots__ = ("name", "ids", "names", "starters")
    _fields = ("name", "players")

    def __init__(self, name: str, players):
        players = tuple(players)
        for p in players:
            if not isinstance(p, RosterPlayer):
                raise TypeError(f"players must be RosterPlayers, not {type(p).__name__}")
        self._set_columns(name, *(tuple(map(attrgetter(f), players))
                                  for f in RosterPlayer._fields))

    @classmethod
    def from_columns(cls, name: str, ids, names=None, starters=None) -> Roster:
        """The roster of players ``ids`` named ``names`` (default the ids; an
        empty name is the id, as in RosterPlayer), ``starters`` (default none)."""
        roster, ids = cls.__new__(cls), tuple(ids)
        roster._set_columns(name, ids, ids if names is None else tuple(names),
                            (False,) * len(ids) if starters is None else tuple(starters))
        return roster

    def _set_columns(self, name, ids: tuple, names: tuple, starters: tuple) -> None:
        for what, values in (("player names", names), ("starters", starters)):
            if len(values) != len(ids):
                raise ValueError(f"{len(values)} {what} for {len(ids)} player ids")
        for what, values, kind in (("team name", (name,), str), ("player id", ids, str),
                                   ("player name", names, str), ("starter", starters, bool)):
            if not all(map(isinstance, values, repeat(kind))):
                bad = next(v for v in values if not isinstance(v, kind))
                raise TypeError(f"a {what} must be a {kind.__name__}, not {type(bad).__name__}")
        names = tuple(n or i for n, i in zip(names, ids))
        for slot, value in zip(self.__slots__, (name, ids, names, starters)):
            _set(self, slot, value)

    @property
    def players(self) -> tuple[RosterPlayer, ...]:
        return tuple(map(RosterPlayer, self.ids, self.names, self.starters))

    def _key(self) -> tuple:
        return self.name, self.ids, self.names, self.starters

    def __reduce__(self):
        return type(self).from_columns, self._key()


class GameMetadata(Record):
    date: str | None = None
    final_score: str | None = None  # as "98-95"

    def __init__(self, date: str | None = None, final_score: str | None = None):
        for name, value in (("date", date), ("final_score", final_score)):
            if not isinstance(value, (str, type(None))):
                raise TypeError(f"{name} must be a str or None, not {type(value).__name__}")
            _set(self, name, value)


_NO_METADATA = GameMetadata()


class GameLog(Record):
    """One game.  ``events`` is an EventArrays, as the parsers and the
    generator pass, or event objects, read into one; ``arrays`` holds it, and
    the ``events`` property rebuilds the objects from it on each call.  An
    unknown sport is a ValueError here; not two Rosters, metadata that is no
    GameMetadata, an object that is no event type, or an unhashable role, a
    TypeError."""

    __slots__ = ("sport", "teams", "metadata", "arrays")
    _fields = ("sport", "teams", "events", "metadata")

    def __init__(self, sport: Sport, teams, events, metadata: GameMetadata = _NO_METADATA):
        sport, teams = Sport(sport), tuple(teams)
        if len(teams) != 2 or not all(isinstance(t, Roster) for t in teams):
            raise TypeError(f"teams must be two Rosters, not {[type(t).__name__ for t in teams]}")
        if not isinstance(metadata, GameMetadata):
            raise TypeError(f"metadata must be a GameMetadata, not {type(metadata).__name__}")
        if not isinstance(events, EventArrays):
            events = tuple(events)
            kind = list(map(KIND_OF.get, map(type, events)))
            if None in kind:
                raise TypeError(f"{events[kind.index(None)]!r} is not an event")
            events = EventArrays.read(events, np.array(kind, np.intp), teams)
        for name, value in zip(self.__slots__, (sport, teams, metadata, events)):
            _set(self, name, value)

    @property
    def events(self) -> tuple[Event, ...]:
        return self.arrays.to_events()

    # ==, hash and pickle read the columns, never the event objects
    def _key(self) -> tuple:
        arr = self.arrays
        return self.sport, self.teams, self.metadata, arr.ids, arr.odd

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key() and all(
            map(np.array_equal, self.arrays[:4], other.arrays[:4]))

    def __hash__(self) -> int:
        *key, odd = self._key()
        return hash((*key, frozenset(odd.items()),
                     *(np.asarray(col, np.int64).tobytes() for col in self.arrays[:4])))

    def __reduce__(self):
        return type(self), (self.sport, self.teams, self.arrays, self.metadata)

    @property
    def n_players(self) -> int:
        return len(self.teams[0].ids) + len(self.teams[1].ids)


class Violation(Record):
    """One broken invariant.  event_index is None for roster-level problems."""

    event_index: int | None
    reason: str

    def __str__(self) -> str:
        where = "roster" if self.event_index is None else f"event {self.event_index}"
        return f"{where}: {self.reason}"


def validate_game(log: GameLog) -> list[Violation]:
    """Check every roster and event invariant; return all violations.

    An empty list means the log is fit for graph construction.  Pure: the
    same log always yields the same list, and nothing is mutated.  Events
    are checked as columns; messages are written for the failing rows only.
    """
    if not isinstance(log, GameLog):
        raise TypeError(f"validate_game needs a GameLog, not {type(log).__name__}")
    out: list[Violation] = []

    seen: set[str] = set()
    for roster in log.teams:
        if not roster.ids:
            out.append(Violation(None, f"team '{roster.name}' has no players"))
        for pid in roster.ids:
            if not pid:
                out.append(Violation(None, f"team '{roster.name}' has a player with an empty id"))
            elif pid in seen:
                out.append(Violation(None, f"player id '{pid}' appears more than once"))
            seen.add(pid)
    if log.n_players < 2:
        out.append(Violation(None, "a game needs at least 2 players"))
    if log.n_players > MAX_PLAYERS:
        out.append(Violation(None, f"{log.n_players} players, over the cap of {MAX_PLAYERS}"))
    if log.teams[0].name == log.teams[1].name:
        out.append(Violation(None, f"both teams are named '{log.teams[0].name}'"))

    arr = log.arrays
    sport = log.sport
    kind, a, b, weight = arr.kind, arr.a, arr.b, arr.weight
    # each node's side: team 1 (0), team 2 (1) or neither roster (2); -1 (last) for no role
    side = np.repeat([0, 1, 2, -1],
                     [len(t.ids) for t in log.teams] + [len(arr.ids) - log.n_players, 1])
    ta, tb = side[a], side[b]
    legal, pair, lo, hi = KIND_TABLE[sport][:4, kind]
    illegal = legal == 0
    unknown = (ta == 2) | (tb == 2)
    checked = ~(illegal | unknown)
    wrong_sides = checked & (((pair == 2) & (ta == tb)) | ((pair == 1) & ((a == b) | (ta != tb))))
    bad_int = checked & ((weight < lo) | (weight > hi))

    for i in np.flatnonzero(~checked | wrong_sides | bad_int).tolist():
        spec = EVENT_SPECS[kind[i]]
        name = spec.name
        if illegal[i]:
            out.append(Violation(i, f"{name} is not a {sport.value} event"))
            continue
        if unknown[i]:
            out += [Violation(i, f"{name} references unknown player '{arr.ids[col[i]]}'")
                    for col, side in ((a, ta), (b, tb)) if side[i] == 2]
            continue
        if wrong_sides[i]:
            out.append(Violation(i, f"{name} endpoints must be on opposite teams" if pair[i] == 2
                                 else f"{name} endpoints must be distinct" if a[i] == b[i]
                                 else f"{name} endpoints on opposite teams"))
        if bad_int[i]:  # a non-int comes from an API-built event: the parsers check types
            f, value = next(iter(spec.ints)), arr.odd.get(i, int(weight[i]))
            out.append(Violation(i, f"{name} needs {f} to be an integer, got {value!r}"
                                 if type(value) is not int
                                 else f"{sport.value} {name}s are always worth 1, got {f}={value}"
                                 if f not in spec.wire_ints(sport)
                                 else f"{name} needs {f} >= {lo[i]} and <= {hi[i]}, "
                                      f"got {value}"))

    return out
