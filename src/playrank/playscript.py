"""Compact arrow notation for basketball games.

Grammar (line oriented, UTF-8):

    #team <name> <id> [<id> ...]     exactly two, before any sequence line
    #starters <id> [<id> ...]        optional
    #! free-form comment             ignored
    A -> B -> F -> G:2               play sequences

Sequence tokens are declared player ids plus three specials: ``G`` (made
basket, 1 point), ``G:k`` (made basket worth k points, 1..4) and ``0``
(dead ball).  Adjacent player tokens become a pass when they share a team
and a dispossession when they do not; ``0`` ends the possession (an
unforced turnover when a player precedes it), and whatever follows a score
or a ``0`` or starts a new line opens a fresh possession with no arc
implied.  Richer events (fouls, rebound attribution, free throws) need the
JSON format.
"""

from __future__ import annotations

from .model import (
    EVENT_SPECS, KIND_OF, Dispossess, EventArrays, GameLog, Pass, Roster, RosterPlayer,
    Score, Sport, UnforcedTurnover,
)

_PASS, _STEAL, _LOST, _SCORE = (
    KIND_OF[cls] for cls in (Pass, Dispossess, UnforcedTurnover, Score))
_SEPARATOR = "->"
_MIN_POINTS, _MAX_POINTS = EVENT_SPECS[_SCORE].ints["points"]


class PlayscriptError(Exception):
    """Parse failure with source location.

    ``kind`` is one of "malformed-header", "unknown-token",
    "undeclared-player".
    """

    def __init__(self, kind: str, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.kind = kind
        self.line = line
        self.column = column
        self.message = message


def _is_reserved(token: str) -> bool:
    return token in ("G", "0") or token.startswith("G:")


def _split_tokens(text: str):
    """Yield (token, 1-based column) for one sequence line."""
    pos = 0
    for piece in text.split(_SEPARATOR):
        token = piece.strip()
        col = pos + len(piece) - len(piece.lstrip()) + 1
        yield token, col
        pos += len(piece) + len(_SEPARATOR)


def parse_playscript(text: str) -> GameLog:
    """Parse a playscript document into a basketball GameLog.

    Raises PlayscriptError (with line and column) on the first problem; a
    partially parsed log is never returned.
    """
    teams: list[tuple[str, list[str]]] = []  # (name, player ids)
    starters: dict[str, tuple[int, int]] = {}  # id -> where #starters named it
    node: dict[str, int] = {}  # id -> node: roster order, team 1 then team 2
    events: list[tuple] = []  # (kind, first node, second node or -1, points)

    lines = text.splitlines()

    # Header pass: team declarations and starters can sit anywhere, but
    # sequences need the rosters, so collect headers first.
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line.startswith("#") or line.startswith("#!"):
            continue
        col = raw.index("#") + 1
        fields = line.split()
        if fields[0] == "#team":
            if len(teams) == 2:
                raise PlayscriptError("malformed-header", lineno, col,
                                      "more than two #team lines")
            if len(fields) < 3:
                raise PlayscriptError("malformed-header", lineno, col,
                                      "#team needs a name and at least one player id")
            name, ids = fields[1], fields[2:]
            for pid in ids:
                if _is_reserved(pid):
                    raise PlayscriptError("malformed-header", lineno, col,
                                          f"player id {pid!r} collides with a reserved token")
                if pid in node:
                    raise PlayscriptError("malformed-header", lineno, col,
                                          f"player id {pid!r} declared twice")
                node[pid] = len(node)
            teams.append((name, ids))
        elif fields[0] == "#starters":
            for pid in fields[1:]:
                starters.setdefault(pid, (lineno, col))
        else:
            raise PlayscriptError("malformed-header", lineno, col,
                                  f"unknown directive {fields[0]!r}")

    if len(teams) != 2:
        raise PlayscriptError("malformed-header", len(lines) + 1, 1,
                              f"expected two #team lines, found {len(teams)}")
    for pid, (lineno, col) in starters.items():
        if pid not in node:
            raise PlayscriptError("undeclared-player", lineno, col,
                                  f"#starters references undeclared player {pid!r}")
    rosters = [Roster(name, (RosterPlayer(pid, pid, pid in starters) for pid in ids))
               for name, ids in teams]

    # Sequence pass.
    n_home = len(teams[0][1])
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        prev: int | None = None  # node carrying the ball, None = dead ball
        for token, col in _split_tokens(raw):
            if token == "0":
                if prev is not None:
                    events.append((_LOST, prev, -1, 1))
                prev = None
            elif token == "G" or token.startswith("G:"):
                points = 1
                if token != "G":
                    digits = token[2:]
                    if not (digits.isascii() and digits.isdigit()
                            and _MIN_POINTS <= int(digits) <= _MAX_POINTS):
                        raise PlayscriptError(
                            "unknown-token", lineno, col, f"bad score token {token!r} "
                            f"(use G or G:{_MIN_POINTS}..G:{_MAX_POINTS})")
                    points = int(digits)
                if prev is None:
                    raise PlayscriptError("unknown-token", lineno, col,
                                          f"score token {token!r} must follow a player")
                events.append((_SCORE, prev, -1, points))
                prev = None
            elif token in node:
                here = node[token]
                if prev is not None:
                    if (prev < n_home) == (here < n_home):
                        events.append((_PASS, prev, here, 1))
                    else:
                        events.append((_STEAL, here, prev, 1))  # winner, loser
                prev = here
            elif not token:
                raise PlayscriptError("unknown-token", lineno, col, "empty token")
            elif token.isidentifier() or token.isalnum():
                raise PlayscriptError("undeclared-player", lineno, col,
                                      f"player {token!r} is not on either roster")
            else:
                raise PlayscriptError("unknown-token", lineno, col,
                                      f"unrecognized token {token!r}")

    return GameLog(Sport.BASKETBALL, rosters, EventArrays.from_rows(events, tuple(node)))
