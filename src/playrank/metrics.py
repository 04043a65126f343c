"""Integrated playmaking metric (IPM), team aggregates and cross-game tables.

The raw stationary vector is rescaled so players can be compared across
games: with n players, player rank r_i and goal rank r_g,

    IPM_i = 50 n r_i / sum_j r_j = 50 n r_i / (1 - r_g)

which removes the goal node's share and pins the per-game player average at
exactly 50 (so the IPM sum is 50 n and the lowest IPM in a game can never
exceed 50).  Any positive rescaling of the stationary vector leaves IPMs
unchanged.
"""

from __future__ import annotations

import re
from collections import defaultdict
from itertools import compress, groupby, repeat
from operator import attrgetter, itemgetter
from typing import Mapping, NamedTuple

from .model import GameMetadata, Roster
from .ranking import RankVector

_SCORE_RE = re.compile(r"^\s*(\d+)\s*-\s*(\d+)\s*$")


class DegenerateGoalRankError(Exception):
    """Goal rank is 1 to machine precision; no player rank mass to rescale."""


class PlayerIpm(NamedTuple):
    player: str
    name: str
    team: str
    starter: bool
    rank: float
    ipm: float


class IpmReport(NamedTuple):
    """Per-player IPMs for one game.

    ``players`` keeps roster order (team 1 then team 2); ``standings`` is
    sorted by IPM descending, and bit-equal IPMs keep roster order (IPMs
    equal in exact arithmetic may differ in their last bits, by solver, and
    so list in either order).  IPMs are stored at full precision; rounding
    to hundredths is a rendering concern.
    """

    n: int
    goal_rank: float
    residual: float
    method: str
    players: tuple[PlayerIpm, ...]
    standings: tuple[PlayerIpm, ...]
    iterations: int = 0  # power iterations; 0 when the direct solve gave the vector


class TeamAggregate(NamedTuple):
    team: str
    size: int
    aipm: float
    starter_aipm: float | None  # None when the roster marks no starters
    label: str | None           # "winner" / "loser" when metadata settles it


class CrossGameRow(NamedTuple):
    player: str
    ipms: dict[str, float | None]  # game id -> IPM, None where absent
    mean: float


class CrossGameTable(NamedTuple):
    game_ids: tuple[str, ...]
    rows: tuple[CrossGameRow, ...]


def compute_ipm(rank: RankVector, rosters: tuple[Roster, Roster]) -> IpmReport:
    """Rescale a stationary vector into the per-player IPM report."""
    goal_rank = rank.goal_rank
    if goal_rank >= 1.0 - 1e-15:
        raise DegenerateGoalRankError(
            f"goal rank {goal_rank} leaves no player mass to rescale"
        )
    player_ranks = rank.player_ranks
    n = len(player_ranks)
    total = float(player_ranks.sum())  # equals 1 - goal_rank
    home, away = rosters
    ids = home.ids + away.ids
    if len(ids) != n:
        raise ValueError(f"rank vector has {n} player entries, rosters have {len(ids)}")
    ipms = 50.0 * n * player_ranks / total
    players = tuple(map(tuple.__new__, repeat(PlayerIpm), zip(  # not PlayerIpm's Python __new__
        ids, home.names + away.names, (home.name,) * len(home.ids) + (away.name,) * len(away.ids),
        home.starters + away.starters, player_ranks.tolist(), ipms.tolist())))
    order = (-ipms).argsort(kind="stable").tolist()  # bit-equal IPMs keep roster order
    return IpmReport(
        n=n, goal_rank=goal_rank, residual=rank.residual, method=rank.method,
        players=players, standings=tuple(map(players.__getitem__, order)),
        iterations=rank.iterations,
    )


def _winner_index(metadata: GameMetadata | None) -> int | None:
    """0/1 for the winning team per the final_score string, None otherwise.

    The score is taken from metadata alone, never inferred from events:
    hand transcriptions can be incomplete and only basketball events carry
    point values at all.
    """
    if metadata is None or not metadata.final_score:
        return None
    m = _SCORE_RE.match(metadata.final_score)
    if not m:
        return None
    a, b = int(m.group(1)), int(m.group(2))
    if a == b:
        return None
    return 0 if a > b else 1


def aggregates(report: IpmReport,
               metadata: GameMetadata | None = None) -> tuple[TeamAggregate, TeamAggregate]:
    """Per-team average IPMs (all players and designated starters), team 1 first."""
    winner = _winner_index(metadata)
    teams = []
    # players keep roster order, so each team is one run; sums stay in that order
    for t, (name, run) in enumerate(groupby(report.players, attrgetter("team"))):
        columns = PlayerIpm._make(zip(*run))
        ipms, starters = columns.ipm, tuple(compress(columns.ipm, columns.starter))
        teams.append(TeamAggregate(
            team=name,
            size=len(ipms),
            aipm=sum(ipms) / len(ipms),
            starter_aipm=sum(starters) / len(starters) if starters else None,
            label=None if winner is None else "winner" if winner == t else "loser",
        ))
    if len(teams) != 2:  # validate_game rejects both; a library caller may skip it
        raise ValueError(f"{len(teams)} team runs, not 2: an empty roster or a shared team name")
    return teams[0], teams[1]


def compare_games(reports: Mapping[str, IpmReport]) -> CrossGameTable:
    """Join reports on player id for cross-game comparison.

    Players missing from a game keep a None cell there (never zero); the
    mean is over the games they actually appear in, summed in game order.
    Rows are sorted by mean IPM descending, ties by player id.  The join
    visits each report entry once, so its Python work grows with the IPMs
    given, not with players × games.
    """
    if not reports:
        raise ValueError("compare_games needs at least one report")
    game_ids = tuple(reports)
    # one pass over the entries: player -> {game: ipm}, filled game by game,
    # each report reversed so the first occurrence of a repeated id wins
    cells: defaultdict[str, dict[str, float]] = defaultdict(dict)
    for gid, report in reports.items():
        for p in reversed(report.players):
            cells[p.player][gid] = p.ipm
    blank = dict.fromkeys(game_ids)  # `blank | got` keeps game order, None where absent
    rows = [tuple.__new__(CrossGameRow, (pid, blank | got, sum(got.values()) / len(got)))
            for pid, got in cells.items()]
    rows.sort(key=itemgetter(0))  # then stably by mean descending: the order (-mean, player)
    rows.sort(key=itemgetter(2), reverse=True)
    return CrossGameTable(game_ids=game_ids, rows=tuple(rows))
