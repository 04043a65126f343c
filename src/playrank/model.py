"""Game logs: sports, rosters, the per-sport event vocabulary, and validation.

A GameLog is the unit of input for everything downstream: an ordered list of
events between two fixed rosters.  Events reference players by caller-supplied
id strings; the library never invents identifiers.  All types are immutable
after construction and validation is a pure function that collects every
violation instead of failing fast, so a hand-transcribed log can be cleaned up
in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Union


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

# Wire/type names, one per variant (used by the JSON format, the synthesizer
# weights and error messages).
EVENT_NAMES: dict[type, str] = {
    Pass: "pass",
    Dispossess: "dispossess",
    Intercept: "intercept",
    Touch: "touch",
    UnforcedTurnover: "unforced_turnover",
    Stoppage: "stoppage",
    ContestedMiss: "contested_miss",
    Score: "score",
    UncontestedMissRebounded: "uncontested_miss_rebounded",
    FoulWithFreeThrows: "foul_with_free_throws",
    FoulNoFreeThrows: "foul_no_free_throws",
    UncontestedMissDead: "uncontested_miss_dead",
    Save: "save",
    FoulDead: "foul_dead",
    FoulLeadingToGoal: "foul_leading_to_goal",
    Offside: "offside",
    PenaltyDrawnNoPPG: "penalty_drawn_no_ppg",
    PenaltyDrawnPPG: "penalty_drawn_ppg",
    Icing: "icing",
}

_COMMON_EVENTS = (Pass, Dispossess, Intercept, Touch, UnforcedTurnover,
                  Stoppage, ContestedMiss, Score)

SPORT_EVENTS: dict[Sport, frozenset[type]] = {
    Sport.BASKETBALL: frozenset(_COMMON_EVENTS + (
        UncontestedMissRebounded, FoulWithFreeThrows, FoulNoFreeThrows)),
    Sport.SOCCER: frozenset(_COMMON_EVENTS + (
        UncontestedMissDead, Save, FoulDead, FoulLeadingToGoal, Offside)),
    Sport.HOCKEY: frozenset(_COMMON_EVENTS + (
        UncontestedMissDead, Save, PenaltyDrawnNoPPG, PenaltyDrawnPPG,
        Offside, Icing)),
}

# Event fields that must reference players on opposite teams.  Pass is the
# only same-team pair; Offside/Icing/UncontestedMissRebounded sides are
# deliberately unconstrained.
_OPPOSITE_TEAM_FIELDS: dict[type, tuple[str, str]] = {
    Dispossess: ("winner", "loser"),
    Intercept: ("winner", "passer"),
    ContestedMiss: ("shooter", "defender"),
    Save: ("shooter", "keeper"),
    FoulWithFreeThrows: ("fouler", "fouled"),
    FoulNoFreeThrows: ("fouler", "fouled"),
    FoulDead: ("fouler", "fouled"),
    FoulLeadingToGoal: ("fouler", "fouled"),
    PenaltyDrawnNoPPG: ("drawer", "penalized"),
    PenaltyDrawnPPG: ("drawer", "penalized"),
}

# Every field of every event that holds a player id.
PLAYER_FIELDS: dict[type, tuple[str, ...]] = {
    Pass: ("passer", "receiver"),
    Dispossess: ("winner", "loser"),
    Intercept: ("winner", "passer"),
    Touch: ("player",),
    UnforcedTurnover: ("player",),
    Stoppage: (),
    ContestedMiss: ("shooter", "defender"),
    Score: ("scorer",),
    UncontestedMissRebounded: ("shooter", "rebounder"),
    FoulWithFreeThrows: ("fouler", "fouled"),
    FoulNoFreeThrows: ("fouler", "fouled"),
    UncontestedMissDead: ("shooter",),
    Save: ("shooter", "keeper"),
    FoulDead: ("fouler", "fouled"),
    FoulLeadingToGoal: ("fouler", "fouled"),
    Offside: ("passer", "offside_player"),
    PenaltyDrawnNoPPG: ("drawer", "penalized"),
    PenaltyDrawnPPG: ("drawer", "penalized"),
    Icing: ("icer", "toucher"),
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

    for i, ev in enumerate(log.events):
        cls = type(ev)
        name = EVENT_NAMES.get(cls, cls.__name__)
        if cls not in EVENT_NAMES:
            out.append(Violation(i, f"unknown event type {cls.__name__}"))
            continue
        if cls not in legal:
            out.append(Violation(i, f"{name} is not a {log.sport.value} event"))
            continue

        missing = False
        for fname in PLAYER_FIELDS[cls]:
            pid = getattr(ev, fname)
            if pid not in team_of:
                out.append(Violation(i, f"{name} references unknown player '{pid}'"))
                missing = True
        if missing:
            continue

        if cls is Pass:
            if ev.passer == ev.receiver:
                out.append(Violation(i, "pass endpoints must be distinct"))
            elif team_of[ev.passer] != team_of[ev.receiver]:
                out.append(Violation(i, "pass endpoints on opposite teams"))
        elif cls in _OPPOSITE_TEAM_FIELDS:
            fa, fb = _OPPOSITE_TEAM_FIELDS[cls]
            if team_of[getattr(ev, fa)] == team_of[getattr(ev, fb)]:
                out.append(Violation(i, f"{name} endpoints must be on opposite teams"))

        if cls is Score and log.sport is Sport.BASKETBALL:
            if not 1 <= ev.points <= 4:
                out.append(Violation(i, f"basketball score points must be 1..4, got {ev.points}"))
        elif cls is Score and ev.points != 1:
            out.append(Violation(i, f"{log.sport.value} scores are always worth 1, got points={ev.points}"))
        if cls is FoulWithFreeThrows and not 1 <= ev.made <= 3:
            # a foul awards at most three free throws
            out.append(Violation(i, f"foul_with_free_throws needs made >= 1 and <= 3, got {ev.made}"))

    return out
