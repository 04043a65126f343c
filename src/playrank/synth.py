"""Seeded random game generation for property tests and benchmarks.

Games are valid by construction (generate_random_game output always passes
validate_game) and deterministic for a fixed seed.  Event types are drawn
with the default weights in their rows of EVENT_SPECS; pass weights to skew
the mix, keyed by wire name (e.g. {"pass": 10.0, "score": 1.0}).  Players
are drawn to fit each row's pair rule and integer fields uniformly within
their bounds.  Events needing two teammates (passes) are dropped from the
pool automatically in 1-on-1 games.
"""

from __future__ import annotations

import random

from .model import (
    EVENT_SPECS, KIND_OF, KIND_TABLE, OPPONENTS, TEAMMATES, EventArrays, GameLog,
    Roster, RosterPlayer, Sport,
)

_STARTERS_PER_TEAM = {Sport.BASKETBALL: 5, Sport.SOCCER: 11, Sport.HOCKEY: 6}


def _make_rosters(sport: Sport, n_players: int) -> tuple[Roster, Roster]:
    n_home = n_players - n_players // 2
    k = _STARTERS_PER_TEAM[sport]

    def roster(name: str, prefix: str, size: int) -> Roster:
        return Roster(name, tuple(
            RosterPlayer(f"{prefix}{i}", starter=i <= min(size, k))
            for i in range(1, size + 1)
        ))

    return roster("Home", "H", n_home), roster("Away", "A", n_players - n_home)


def generate_random_game(
    sport: Sport,
    n_players: int,
    n_events: int,
    seed: int,
    weights: dict[str, float] | None = None,
) -> GameLog:
    """Build a deterministic random GameLog that always validates clean.

    Raises ValueError when ``n_events`` > 0 and no event type is left to
    draw (every weight is 0, or only passes remain in a 1-on-1 game).
    """
    if n_players < 2:
        raise ValueError(f"need at least 2 players, got {n_players}")
    if n_events < 0:
        raise ValueError(f"n_events must be >= 0, got {n_events}")

    specs = [spec for spec, legal in zip(EVENT_SPECS, KIND_TABLE[sport][0]) if legal]
    table = {spec.name: spec.sports[sport][1] for spec in specs}
    if weights is not None:
        unknown = set(weights) - set(table)
        if unknown:
            raise ValueError(
                f"weights for non-{sport.value} event types: {sorted(unknown)}")
        table.update(weights)

    rng = random.Random(seed)
    home, away = _make_rosters(sport, n_players)
    everyone = tuple(range(n_players))  # nodes: home, then away
    teams = (everyone[:len(home.players)], everyone[len(home.players):])
    sides = [t for t in teams if len(t) >= 2]

    pool = [spec for spec in specs
            if table[spec.name] > 0 and (sides or spec.pair is not TEAMMATES)]
    if n_events and not pool:
        raise ValueError(f"no {sport.value} event type has a positive weight "
                         f"that this roster can play")
    # per kind, once per game: code, pair rule, role count, carried int bounds
    draws = [(KIND_OF[spec.cls], spec.pair, len(spec.roles),
              [spec.ints[f] for f in spec.wire_ints(sport)]) for spec in pool]
    kinds = rng.choices(draws, [table[spec.name] for spec in pool], k=n_events) if pool else []

    rows = []
    for kind, pair, n_roles, bounds in kinds:
        if pair is TEAMMATES:
            ids = rng.sample(rng.choice(sides), 2)
        elif pair is OPPONENTS:
            a, b = teams if rng.random() < 0.5 else (teams[1], teams[0])
            ids = (rng.choice(a), rng.choice(b))
        else:
            ids = rng.sample(everyone, n_roles)
        first, second = (*ids, -1, -1)[:2]
        ints = [rng.randint(lo, hi) for lo, hi in bounds]
        rows.append((kind, first, second, ints[0] if ints else 1))

    return GameLog(sport, (home, away),
                   EventArrays.from_rows(rows, home.player_ids + away.player_ids))
