"""Game logs: sports, events, the event table, rosters, and validation.

A GameLog is the unit of input for everything downstream: an ordered list of
events between two fixed rosters.  Events reference players by caller-supplied
id strings; the library never invents identifiers.  All types are immutable
after construction and validation is a pure function that collects every
violation instead of failing fast, so a hand-transcribed log can be cleaned up
in one pass.

EVENT_SPECS holds one row per event type with everything the pipeline knows
about it: wire name, player roles, pair rule, integer bounds, and per sport
its arc and synthesizer weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Union


class Sport(str, Enum):
    BASKETBALL = "basketball"
    SOCCER = "soccer"
    HOCKEY = "hockey"


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pass:
    """Completed pass between teammates."""

    passer: str
    receiver: str


@dataclass(frozen=True)
class Dispossess:
    """Defender strips possession (steal, tackle, deflection out of play)."""

    winner: str
    loser: str


@dataclass(frozen=True)
class Intercept:
    """Defender picks off a pass; credited like a dispossession."""

    winner: str
    passer: str


@dataclass(frozen=True)
class Touch:
    """Incidental contact with the ball/puck without possession."""

    player: str


@dataclass(frozen=True)
class UnforcedTurnover:
    """Possession lost with no defender earning it; play goes dead."""

    player: str


@dataclass(frozen=True)
class Stoppage:
    """Dead-ball interruption unrelated to play (injury, interference...)."""


@dataclass(frozen=True)
class ContestedMiss:
    """Missed shot taken under pressure from a defender (includes blocks)."""

    shooter: str
    defender: str


@dataclass(frozen=True)
class Score:
    """Goal or made basket.  Basketball carries the point value (1..4);
    soccer and hockey goals always count once and keep points == 1."""

    scorer: str
    points: int = 1


@dataclass(frozen=True)
class UncontestedMissRebounded:
    """Basketball: open miss whose rebound is collected by any player.

    The rebounder may be on either team (or be the shooter); the credit
    flows to whoever resumed play regardless of side.
    """

    shooter: str
    rebounder: str


@dataclass(frozen=True)
class FoulWithFreeThrows:
    """Basketball: foul where the fouled player makes ``made`` free throws (1..3)."""

    fouler: str
    fouled: str
    made: int


@dataclass(frozen=True)
class FoulNoFreeThrows:
    """Basketball: foul conceding no points; credited to the fouler."""

    fouler: str
    fouled: str


@dataclass(frozen=True)
class UncontestedMissDead:
    """Soccer/hockey: unpressured miss; play is dead, nobody credited."""

    shooter: str


@dataclass(frozen=True)
class Save:
    """Soccer/hockey: shot stopped by the opposing goalkeeper."""

    shooter: str
    keeper: str


@dataclass(frozen=True)
class FoulDead:
    """Soccer: foul that leads to nothing; play is dead."""

    fouler: str
    fouled: str


@dataclass(frozen=True)
class FoulLeadingToGoal:
    """Soccer: foul conceding a penalty or free-kick goal; fouled player credited."""

    fouler: str
    fouled: str


@dataclass(frozen=True)
class Offside:
    """Pass to a teammate caught offside.  Which side is credited differs
    by sport (see the arc rules)."""

    passer: str
    offside_player: str


@dataclass(frozen=True)
class PenaltyDrawnNoPPG:
    """Hockey: penalty drawn but killed off; the penalized player is credited."""

    drawer: str
    penalized: str


@dataclass(frozen=True)
class PenaltyDrawnPPG:
    """Hockey: penalty drawn and converted on the power play; drawer credited."""

    drawer: str
    penalized: str


@dataclass(frozen=True)
class Icing:
    """Hockey: icing touched up by player on the other team; treated as a
    turnover by the icer."""

    icer: str
    toucher: str


Event = Union[
    Pass, Dispossess, Intercept, Touch, UnforcedTurnover, Stoppage,
    ContestedMiss, Score, UncontestedMissRebounded, FoulWithFreeThrows,
    FoulNoFreeThrows, UncontestedMissDead, Save, FoulDead, FoulLeadingToGoal,
    Offside, PenaltyDrawnNoPPG, PenaltyDrawnPPG, Icing,
]

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

    ``roles`` are the fields holding player ids, in wire order; ``pair``
    (TEAMMATES, OPPONENTS or None) constrains the first two.  ``ints`` maps
    each integer field to its inclusive bounds.  ``sports`` has an entry for
    every sport where the event is legal: the arc the event adds there
    (None for a dead ball) and the synthesizer's default weight.  An integer
    field that a sport's arc does not weight by is fixed at 1 in that sport
    and left off the wire: soccer and hockey goals always count once.
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


_B, _S, _H = Sport.BASKETBALL, Sport.SOCCER, Sport.HOCKEY


def _everywhere(arc: ArcTemplate | None, b: float, s: float, h: float):
    return {_B: (arc, b), _S: (arc, s), _H: (arc, h)}


# The direction convention makes rank flow toward playmakers: a completed
# pass credits the passer (arc receiver -> passer), losing the ball credits
# whoever took it, and scoring pulls arcs out of the goal node (one per point
# in basketball).  Offside is credited to the offside player in soccer and to
# the passer in hockey; both are kept exactly as specified for their sport.
EVENT_SPECS: tuple[EventSpec, ...] = (
    EventSpec(Pass, "pass", ("passer", "receiver"), TEAMMATES, {},
              _everywhere(("receiver", "passer", 1), 50, 55, 50)),
    EventSpec(Dispossess, "dispossess", ("winner", "loser"), OPPONENTS, {},
              _everywhere(("loser", "winner", 1), 6, 8, 7)),
    EventSpec(Intercept, "intercept", ("winner", "passer"), OPPONENTS, {},
              _everywhere(("passer", "winner", 1), 5, 6, 6)),
    EventSpec(Touch, "touch", ("player",), None, {}, _everywhere(None, 3, 4, 3)),
    EventSpec(UnforcedTurnover, "unforced_turnover", ("player",), None, {},
              _everywhere(None, 4, 4, 4)),
    EventSpec(Stoppage, "stoppage", (), None, {}, _everywhere(None, 3, 2, 3)),
    EventSpec(ContestedMiss, "contested_miss", ("shooter", "defender"), OPPONENTS, {},
              _everywhere(("shooter", "defender", 1), 8, 4, 6)),
    EventSpec(Score, "score", ("scorer",), None, {"points": (1, 4)}, {
        _B: ((GOAL, "scorer", "points"), 10),
        _S: ((GOAL, "scorer", 1), 2),
        _H: ((GOAL, "scorer", 1), 3)}),
    EventSpec(UncontestedMissRebounded, "uncontested_miss_rebounded",
              ("shooter", "rebounder"), None, {}, {_B: (("shooter", "rebounder", 1), 6)}),
    EventSpec(FoulWithFreeThrows, "foul_with_free_throws", ("fouler", "fouled"), OPPONENTS,
              {"made": (1, 3)}, {_B: ((GOAL, "fouled", "made"), 3)}),
    EventSpec(FoulNoFreeThrows, "foul_no_free_throws", ("fouler", "fouled"), OPPONENTS, {},
              {_B: (("fouled", "fouler", 1), 2)}),  # smart foul
    EventSpec(UncontestedMissDead, "uncontested_miss_dead", ("shooter",), None, {},
              {_S: (None, 3), _H: (None, 3)}),
    EventSpec(Save, "save", ("shooter", "keeper"), OPPONENTS, {},
              {_S: (("shooter", "keeper", 1), 4), _H: (("shooter", "keeper", 1), 8)}),
    EventSpec(FoulDead, "foul_dead", ("fouler", "fouled"), OPPONENTS, {}, {_S: (None, 5)}),
    EventSpec(FoulLeadingToGoal, "foul_leading_to_goal", ("fouler", "fouled"), OPPONENTS, {},
              {_S: (("fouler", "fouled", 1), 1)}),  # smart draw
    EventSpec(Offside, "offside", ("passer", "offside_player"), None, {}, {
        _S: (("passer", "offside_player", 1), 2),
        _H: (("offside_player", "passer", 1), 2)}),
    EventSpec(PenaltyDrawnNoPPG, "penalty_drawn_no_ppg", ("drawer", "penalized"), OPPONENTS,
              {}, {_H: (("drawer", "penalized", 1), 2)}),  # smart penalty
    EventSpec(PenaltyDrawnPPG, "penalty_drawn_ppg", ("drawer", "penalized"), OPPONENTS, {},
              {_H: (("penalized", "drawer", 1), 1)}),  # smart draw
    EventSpec(Icing, "icing", ("icer", "toucher"), None, {},
              {_H: (("icer", "toucher", 1), 2)}),  # a turnover to the toucher
)

SPEC_BY_CLASS: dict[type, EventSpec] = {spec.cls: spec for spec in EVENT_SPECS}

# The rows of the event types legal in each sport.
SPORT_EVENTS: dict[Sport, dict[type, EventSpec]] = {
    sport: {spec.cls: spec for spec in EVENT_SPECS if sport in spec.sports}
    for sport in Sport
}


# ---------------------------------------------------------------------------
# Rosters and game logs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RosterPlayer:
    id: str
    name: str = ""
    starter: bool = False

    def __post_init__(self):
        if not self.name:
            object.__setattr__(self, "name", self.id)


@dataclass(frozen=True)
class Roster:
    """One team.  Player order is significant: it fixes matrix row/column
    order for the whole pipeline and must survive serialization."""

    name: str
    players: tuple[RosterPlayer, ...]

    def __post_init__(self):
        object.__setattr__(self, "players", tuple(self.players))

    @property
    def player_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.players)

    @property
    def starter_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.players if p.starter)


@dataclass(frozen=True)
class GameMetadata:
    date: str | None = None
    final_score: str | None = None


@dataclass(frozen=True)
class GameLog:
    sport: Sport
    teams: tuple[Roster, Roster]
    events: tuple[Event, ...]
    metadata: GameMetadata = field(default_factory=GameMetadata)

    def __post_init__(self):
        object.__setattr__(self, "teams", tuple(self.teams))
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def n_players(self) -> int:
        return len(self.teams[0].players) + len(self.teams[1].players)


@dataclass(frozen=True)
class Violation:
    """One broken invariant.  event_index is None for roster-level problems."""

    event_index: int | None
    reason: str

    def __str__(self) -> str:
        where = "roster" if self.event_index is None else f"event {self.event_index}"
        return f"{where}: {self.reason}"


def _team_of(log: GameLog) -> dict[str, int]:
    """Map player id -> team index (0/1).  First occurrence wins so event
    checks stay usable even when rosters themselves are broken."""
    team_of: dict[str, int] = {}
    for t, roster in enumerate(log.teams):
        for p in roster.players:
            team_of.setdefault(p.id, t)
    return team_of


def validate_game(log: GameLog) -> list[Violation]:
    """Check every roster and event invariant; return all violations.

    An empty list means the log is fit for graph construction.  Pure: the
    same log always yields the same list, and nothing is mutated.
    """
    out: list[Violation] = []

    seen: set[str] = set()
    for roster in log.teams:
        if not roster.players:
            out.append(Violation(None, f"team '{roster.name}' has no players"))
        for p in roster.players:
            if not p.id:
                out.append(Violation(None, f"team '{roster.name}' has a player with an empty id"))
            elif p.id in seen:
                out.append(Violation(None, f"player id '{p.id}' appears more than once"))
            seen.add(p.id)
    if log.n_players < 2:
        out.append(Violation(None, "a game needs at least 2 players"))
    if log.teams[0].name == log.teams[1].name:
        out.append(Violation(None, f"both teams are named '{log.teams[0].name}'"))

    team_of = _team_of(log)
    legal = SPORT_EVENTS[log.sport]
    carried = {cls: spec.wire_ints(log.sport) for cls, spec in legal.items() if spec.ints}
    sport = log.sport.value
    for i, ev in enumerate(log.events):
        spec = legal.get(type(ev))
        if spec is None:
            spec = SPEC_BY_CLASS.get(type(ev))
            out.append(Violation(i, f"unknown event type {type(ev).__name__}" if spec is None
                                 else f"{spec.name} is not a {sport} event"))
            continue
        name, roles, pair = spec.name, spec.roles, spec.pair
        missing = False
        for role in roles:
            pid = getattr(ev, role)
            if pid not in team_of:
                out.append(Violation(i, f"{name} references unknown player '{pid}'"))
                missing = True
        if missing:
            continue

        if pair is not None:
            a, b = getattr(ev, roles[0]), getattr(ev, roles[1])
            if pair is OPPONENTS:
                if team_of[a] == team_of[b]:
                    out.append(Violation(i, f"{name} endpoints must be on opposite teams"))
            elif a == b:
                out.append(Violation(i, f"{name} endpoints must be distinct"))
            elif team_of[a] != team_of[b]:
                out.append(Violation(i, f"{name} endpoints on opposite teams"))

        if spec.ints:
            for f, (lo, hi) in spec.ints.items():
                value = getattr(ev, f)
                if type(value) is not int:  # API-built events skip the parsers' checks
                    out.append(Violation(i, f"{name} needs {f} to be an integer, got {value!r}"))
                elif f not in carried[spec.cls]:
                    if value != 1:
                        out.append(Violation(
                            i, f"{sport} {name}s are always worth 1, got {f}={value}"))
                elif not lo <= value <= hi:
                    out.append(Violation(i, f"{name} needs {f} >= {lo} and <= {hi}, got {value}"))

    return out
