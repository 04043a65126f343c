"""Seeded random game generation for property tests and benchmarks.

Games are valid by construction (generate_random_game output always passes
validate_game) and deterministic for a fixed seed under one numpy version.
Each column is drawn once per game against the KIND_TABLE rows that
validation checks.  Event types are drawn with the weights in their rows of
EVENT_SPECS.  Players are drawn to fit each kind's pair rule and integer
fields uniformly within their bounds.  Events needing two teammates
(passes) are dropped from the pool in 1-on-1 games.
"""

from __future__ import annotations

import numpy as np

from .model import EVENT_SPECS, KIND_TABLE, MAX_PLAYERS, EventArrays, GameLog, Roster, Sport

_STARTERS_PER_TEAM = {Sport.BASKETBALL: 5, Sport.SOCCER: 11, Sport.HOCKEY: 6}


def _make_rosters(sport: Sport, n_players: int) -> tuple[Roster, Roster]:
    k = _STARTERS_PER_TEAM[sport]
    return tuple(Roster.from_columns(name, [f"{name[0]}{i}" for i in range(1, size + 1)],
                                     starters=[i <= k for i in range(1, size + 1)])
                 for name, size in (("Home", n_players - n_players // 2),
                                    ("Away", n_players // 2)))


def generate_random_game(sport: Sport, n_players: int, n_events: int, seed: int) -> GameLog:
    """Build a deterministic random GameLog that always validates clean.

    Raises ValueError for an unknown sport, fewer than 2 or more than
    MAX_PLAYERS players, or a negative event count."""
    sport = Sport(sport)
    if not 2 <= n_players <= MAX_PLAYERS:
        raise ValueError(f"need 2 to {MAX_PLAYERS} players, got {n_players}")
    if n_events < 0:
        raise ValueError(f"n_events must be >= 0, got {n_events}")

    legal, pair_rule, lo, hi = KIND_TABLE[sport][:4]
    home, away = _make_rosters(sport, n_players)
    size = np.array([len(home.ids), len(away.ids)])  # nodes: home, then away
    # passes need a team of two; every sport has kinds without a teammate pair
    pool = np.flatnonzero(legal & ((pair_rule != 1) | (size[0] >= 2)))
    share = np.array([EVENT_SPECS[k].sports[sport][1] for k in pool.tolist()], dtype=float)

    rng = np.random.default_rng(abs(seed))  # a negative seed plays its absolute value
    kind = rng.choice(pool, n_events, p=share / share.sum())
    pair = pair_rule[kind]
    # the first role's team; home is never the smaller, so teammates fall back to it
    team = rng.integers(0, 2, n_events) * ((pair != 1) | (size[1] >= 2))
    # the first role's range: that team, or everyone for a kind without a pair rule
    start = np.where(pair == 0, 0, team * size[0])
    span = np.where(pair == 0, n_players, size[team])
    a = start + rng.integers(0, span)
    # the second: anyone on the other team for opponents, else 1..span-1 on from a, wrapped
    other = pair == 2
    start2 = np.where(other, (1 - team) * size[0], start)
    span2 = np.where(other, size[1 - team], span)
    step = np.where(other, 0, a - start + 1) + rng.integers(0, span2 - 1 + other)
    b = start2 + step % span2
    n_roles = np.array([len(spec.roles) for spec in EVENT_SPECS])[kind]
    a[n_roles < 1], b[n_roles < 2] = -1, -1
    weight = rng.integers(lo[kind], hi[kind] + 1)

    return GameLog(sport, (home, away), EventArrays.from_rows(
        np.stack((kind, a, b, weight), axis=1), home.ids + away.ids))
