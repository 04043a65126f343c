"""Compact arrow notation for basketball games.

Grammar (line oriented, UTF-8):

    #team <name> <id> [<id> ...]     exactly two, before any sequence line
    #starters <id> [<id> ...]        optional
    #! free-form comment             ignored
    A -> B -> F -> G:2               play sequences

Sequence tokens are declared player ids, which cannot contain ``->``, start
with ``#`` (a line starting with ``#`` is a header or comment) or start with
``{`` (a document starting with ``{`` is read as JSON), plus
three specials: ``G`` (made basket, 1 point), ``G:k`` (made basket worth k
points, 1..4, leading zeros allowed) and ``0`` (dead ball).  Adjacent player
tokens become a pass when they share a team and a dispossession when they do
not; ``0`` ends the possession (an unforced turnover when a player precedes
it), and whatever follows a score or a ``0`` or starts a new line opens a
fresh possession with no arc implied.  Richer events (fouls, rebound
attribution, free throws) need the JSON format.
"""

from __future__ import annotations

from .model import (
    EVENT_SPECS, KIND_OF, Dispossess, EventArrays, GameLog, Pass, Roster, Score, Sport,
    UnforcedTurnover,
)

_PASS, _STEAL, _LOST, _SCORE = (
    KIND_OF[cls] for cls in (Pass, Dispossess, UnforcedTurnover, Score))
_SEPARATOR = "->"
# Score token -> points: G, and G:k for each k within the score row's bounds.
_POINTS = {"G": 1, **{f"G:{k}": k for low, high in [EVENT_SPECS[_SCORE].ints["points"]]
                      for k in range(low, high + 1)}}


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


def _points(token: str) -> int | None:
    """The points of score token ``token`` (leading zeros allowed), else None."""
    return _POINTS.get(token[:2] + token[2:].lstrip("0"))


def _token_error(raw: str, lineno: int, i: int) -> PlayscriptError:
    """The error for token ``i`` of sequence line ``raw``: a token that is no
    roster id, no ``0`` and no score token following a player."""
    pieces = raw.split(_SEPARATOR)
    token = pieces[i].strip()
    column = len(raw) - len(_SEPARATOR.join(pieces[i:]).lstrip()) + 1
    kind = "unknown-token"
    if token[:2] in ("G", "G:"):
        low, high = EVENT_SPECS[_SCORE].ints["points"]
        message = (f"score token {token!r} must follow a player" if _points(token)
                   else f"bad score token {token!r} (use G or G:{low}..G:{high})")
    elif not token:
        message = "empty token"
    elif token.isidentifier() or token.isalnum():
        kind, message = "undeclared-player", f"player {token!r} is not on either roster"
    else:
        message = f"unrecognized token {token!r}"
    return PlayscriptError(kind, lineno, column, message)


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
        directive, *fields = line.split()
        if directive == "#starters":
            for pid in fields:
                starters.setdefault(pid, (lineno, col))
            continue
        if directive != "#team":
            problem = f"unknown directive {directive!r}"
        elif len(teams) == 2:
            problem = "more than two #team lines"
        elif len(fields) < 2:
            problem = "#team needs a name and at least one player id"
        else:
            for pid in fields[1:]:
                problem = (f"player id {pid!r} collides with a reserved token"
                           if pid in ("G", "0") or pid.startswith("G:")
                           else f"player id {pid!r} contains {_SEPARATOR!r}" if _SEPARATOR in pid
                           else f"player id {pid!r} starts with {pid[0]!r}" if pid[0] in "#{"
                           else f"player id {pid!r} declared twice" if pid in node else None)
                if problem:
                    break
                node[pid] = len(node)
            teams.append((fields[0], fields[1:]))
        if problem:
            raise PlayscriptError("malformed-header", lineno, col, problem)

    if len(teams) != 2:
        raise PlayscriptError("malformed-header", len(lines) + 1, 1,
                              f"expected two #team lines, found {len(teams)}")
    for pid, (lineno, col) in starters.items():
        if pid not in node:
            raise PlayscriptError("undeclared-player", lineno, col,
                                  f"#starters references undeclared player {pid!r}")
    rosters = [Roster.from_columns(name, ids, starters=map(starters.__contains__, ids))
               for name, ids in teams]

    # Sequence pass: one roster lookup per token; _token_error explains a refusal.
    n_home = len(teams[0][1])
    node_of = node.get
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        prev: int | None = None  # node carrying the ball, None = dead ball
        for i, token in enumerate(map(str.strip, line.split(_SEPARATOR))):
            here = node_of(token)
            if here is not None:
                if prev is not None:
                    if (prev < n_home) == (here < n_home):
                        events.append((_PASS, prev, here, 1))
                    else:
                        events.append((_STEAL, here, prev, 1))  # winner, loser
                prev = here
            elif token == "0":
                if prev is not None:
                    events.append((_LOST, prev, -1, 1))
                prev = None
            elif prev is not None and (points := _points(token)):
                events.append((_SCORE, prev, -1, points))
                prev = None
            else:
                raise _token_error(raw, lineno, i)

    return GameLog(Sport.BASKETBALL, rosters, EventArrays.from_rows(events, tuple(node)))
