"""Seeded game generator for the benchmark.

Independent of ``playrank.synth`` on purpose: a rewrite of the library's own
generator must not change what the benchmark feeds the program.  Every game
is written as a JSON document (schema_version "1") and as playscript text,
and for every event the generator records the arc that the paper's rules
add, as node indices (players in roster order, team 1 then team 2, then the
goal node last).  The oracle rebuilds the adjacency matrix from those arcs.

Game sizes are spread evenly over their stated ranges and then shuffled, so
two seeds give different games with the same size profile; this keeps
run-to-run spread down to what the program does, not which sizes were drawn.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

GOAL = "GOAL"  # arc endpoint that names the goal node


@dataclass(frozen=True)
class Kind:
    """One event type: its player fields and the arc the rules add.

    ``pair`` says how the second player relates to the first: "same" is a
    distinct teammate, "opp" an opponent, "any" any other player.  ``arc``
    names the (source, destination) fields, GOAL for the goal node, or is
    None for dead-ball events; ``count`` names the field that repeats it.
    """

    name: str
    fields: tuple[str, ...] = ()
    pair: str = ""
    arc: tuple[str, str] | None = None
    count: str | None = None


def _kinds(*kinds: tuple[Kind, float]) -> tuple[tuple[Kind, ...], np.ndarray]:
    weights = np.array([w for _, w in kinds], dtype=float)
    return tuple(k for k, _ in kinds), weights / weights.sum()


_PASS = Kind("pass", ("passer", "receiver"), "same", ("receiver", "passer"))
_DISPOSSESS = Kind("dispossess", ("winner", "loser"), "opp", ("loser", "winner"))
_INTERCEPT = Kind("intercept", ("winner", "passer"), "opp", ("passer", "winner"))
_CONTESTED = Kind("contested_miss", ("shooter", "defender"), "opp",
                  ("shooter", "defender"))
_TOUCH = Kind("touch", ("player",))
_TURNOVER = Kind("unforced_turnover", ("player",))
_STOPPAGE = Kind("stoppage")
_GOAL_SCORE = Kind("score", ("scorer",), arc=(GOAL, "scorer"))
_DEAD_MISS = Kind("uncontested_miss_dead", ("shooter",))
_SAVE = Kind("save", ("shooter", "keeper"), "opp", ("shooter", "keeper"))

# Event mix per sport, with the arc orientation of the paper's rules.  Note
# the offside asymmetry: soccer credits the offside player, hockey the passer.
SPORTS: dict[str, tuple[tuple[Kind, ...], np.ndarray]] = {
    "basketball": _kinds(
        (_PASS, 50), (_DISPOSSESS, 6), (_INTERCEPT, 5), (_CONTESTED, 8),
        (Kind("uncontested_miss_rebounded", ("shooter", "rebounder"), "any",
              ("shooter", "rebounder")), 6),
        (Kind("score", ("scorer",), arc=(GOAL, "scorer"), count="points"), 10),
        (Kind("foul_with_free_throws", ("fouler", "fouled"), "opp",
              (GOAL, "fouled"), count="made"), 3),
        (Kind("foul_no_free_throws", ("fouler", "fouled"), "opp",
              ("fouled", "fouler")), 2),
        (_TOUCH, 3), (_TURNOVER, 4), (_STOPPAGE, 3),
    ),
    "soccer": _kinds(
        (_PASS, 55), (_DISPOSSESS, 8), (_INTERCEPT, 6), (_CONTESTED, 4),
        (_DEAD_MISS, 3), (_SAVE, 4), (_GOAL_SCORE, 2),
        (Kind("foul_dead", ("fouler", "fouled"), "opp"), 5),
        (Kind("foul_leading_to_goal", ("fouler", "fouled"), "opp",
              ("fouler", "fouled")), 1),
        (Kind("offside", ("passer", "offside_player"), "same",
              ("passer", "offside_player")), 2),
        (_TOUCH, 4), (_TURNOVER, 4), (_STOPPAGE, 2),
    ),
    "hockey": _kinds(
        (_PASS, 50), (_DISPOSSESS, 7), (_INTERCEPT, 6), (_CONTESTED, 6),
        (_DEAD_MISS, 3), (_SAVE, 8), (_GOAL_SCORE, 3),
        (Kind("penalty_drawn_no_ppg", ("drawer", "penalized"), "opp",
              ("drawer", "penalized")), 2),
        (Kind("penalty_drawn_ppg", ("drawer", "penalized"), "opp",
              ("penalized", "drawer")), 1),
        (Kind("offside", ("passer", "offside_player"), "same",
              ("offside_player", "passer")), 2),
        (Kind("icing", ("icer", "toucher"), "opp", ("icer", "toucher")), 2),
        (_TOUCH, 3), (_TURNOVER, 4), (_STOPPAGE, 3),
    ),
}

STARTERS = {"basketball": 5, "soccer": 11, "hockey": 6}


@dataclass(frozen=True)
class Game:
    """One generated game in both encodings, with its recorded arcs.

    ``text`` is the encoding the workload feeds the program, in format
    ``fmt`` ("json" or "playscript").  ``play_text`` holds the events
    playscript can express (passes, dispossessions, scores, unforced
    turnovers) and ``play_events`` counts them.  ``src``/``dst``/``weight``
    are the arcs of every event in ``text``.
    """

    gid: str
    teams: tuple[tuple[str, tuple[str, ...]], tuple[str, tuple[str, ...]]]
    fmt: str
    text: str
    events: int
    play_text: str
    play_events: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    @property
    def players(self) -> tuple[str, ...]:
        return self.teams[0][1] + self.teams[1][1]


def spread(rng: np.random.Generator, lo: int, hi: int, n: int) -> list[int]:
    """``n`` integers evenly spaced over [lo, hi], in seeded random order."""
    values = np.rint(np.linspace(lo, hi, n)).astype(int)
    return [int(v) for v in rng.permutation(values)]


def _actors(rng, kinds, codes, sizes):
    """First and second actor (global node index) for each event code."""
    n0, n1 = sizes
    n = n0 + n1
    side = rng.integers(0, 2, size=len(codes))
    size = np.where(side == 0, n0, n1)
    offset = np.where(side == 0, 0, n0)
    local = (rng.random(len(codes)) * size).astype(np.int64)
    a = offset + local
    u = rng.random(len(codes))
    pair = np.array([k.pair for k in kinds])[codes]
    same = offset + (local + 1 + (u * (size - 1)).astype(np.int64)) % size
    other_size = np.where(side == 0, n1, n0)
    opp = np.where(side == 0, n0, 0) + (u * other_size).astype(np.int64)
    anyone = (a + 1 + (u * (n - 1)).astype(np.int64)) % n
    b = np.where(pair == "same", same, np.where(pair == "opp", opp, anyone))
    return a, b


def make_game(rng: np.random.Generator, gid: str, sport: str,
              teams, n_events: int) -> Game:
    """Draw ``n_events`` legal events between ``teams`` and encode them."""
    kinds, probs = SPORTS[sport]
    ids = teams[0][1] + teams[1][1]
    n = len(ids)
    codes = rng.choice(len(kinds), size=n_events, p=probs)
    a, b = _actors(rng, kinds, codes, (len(teams[0][1]), len(teams[1][1])))
    points = rng.choice([1, 2, 3], size=n_events, p=[0.3, 0.5, 0.2])
    made = rng.integers(1, 4, size=n_events)

    src, dst, weight = [], [], []
    objs, play_lines = [], []
    score = [0, 0]
    for code, ai, bi, pts, ft in zip(codes.tolist(), a.tolist(), b.tolist(),
                                     points.tolist(), made.tolist()):
        kind = kinds[code]
        node = dict(zip(kind.fields, (ai, bi)))
        obj = {"type": kind.name}
        for f in kind.fields:
            obj[f] = ids[node[f]]
        count = 1
        if kind.count == "points":
            count = obj["points"] = pts
        elif kind.count == "made":
            count = obj["made"] = ft
        objs.append(obj)
        if kind.arc is not None:
            s, d = (n if f == GOAL else node[f] for f in kind.arc)
            src.append(s)
            dst.append(d)
            weight.append(count)
            if s == n:
                score[d >= len(teams[0][1])] += count

        if kind.name == "pass":
            play_lines.append(f"{obj['passer']} -> {obj['receiver']}")
        elif kind.name == "dispossess":
            play_lines.append(f"{obj['loser']} -> {obj['winner']}")
        elif kind.name == "score":
            play_lines.append(f"{obj['scorer']} -> G:{count}")
        elif kind.name == "unforced_turnover":
            play_lines.append(f"{obj['player']} -> 0")

    k = STARTERS[sport]
    doc = {
        "schema_version": "1",
        "sport": sport,
        "teams": [
            {"name": name, "players": [
                {"id": pid, "starter": i < k} for i, pid in enumerate(pids)]}
            for name, pids in teams
        ],
        "metadata": {"final_score": f"{score[0]}-{score[1]}"},
        "events": objs,
    }
    return Game(
        gid=gid, teams=teams, fmt="json", text=json.dumps(doc),
        events=n_events,
        play_text=_play_header(teams, k) + "\n".join(play_lines) + "\n",
        play_events=len(play_lines),
        src=np.array(src, dtype=np.int64), dst=np.array(dst, dtype=np.int64),
        weight=np.array(weight, dtype=np.int64),
    )


def _play_header(teams, k: int) -> str:
    starters = [pid for _, pids in teams for pid in pids[:k]]
    return "".join(f"#team {name} {' '.join(pids)}\n" for name, pids in teams) + (
        f"#starters {' '.join(starters)}\n")


def league_rosters(prefix: str, n_teams: int, size: int):
    return [(f"{prefix}{t}", tuple(f"{prefix}{t}p{i:02d}" for i in range(size)))
            for t in range(n_teams)]


def _pick(rng, roster, size: int):
    name, ids = roster
    keep = np.sort(rng.choice(len(ids), size=size, replace=False))
    return name, tuple(ids[i] for i in keep)


def season(seed: int, games: int = 240, events=(1000, 4000),
           players=(18, 30)) -> list[Game]:
    """A league's games split evenly over the three sports.

    Each sport has eight teams of 16 players.  A game draws its total player
    count from ``players`` (spread evenly over the sport's games) and splits
    it between two of those teams, so player ids recur across games.  Games
    take the sports in turn, so any 24 consecutive games mix all three.
    """
    rng = np.random.default_rng([seed, 1])
    per_sport = games // 3
    plans = {}
    for sport in SPORTS:
        rosters = league_rosters(sport[0].upper(), 8, 16)
        sizes = spread(rng, players[0], players[1], per_sport)
        lengths = spread(rng, events[0], events[1], per_sport)
        plans[sport] = [(rosters, s, m) for s, m in zip(sizes, lengths)]
    out = []
    for i in range(per_sport):
        for sport in SPORTS:
            rosters, size, length = plans[sport][i]
            home, away = rng.choice(len(rosters), size=2, replace=False)
            teams = (_pick(rng, rosters[home], size - size // 2),
                     _pick(rng, rosters[away], size // 2))
            out.append(make_game(rng, f"{sport}-{i:03d}", sport, teams, length))
    return out


def wide_roster(seed: int, games: int = 24, events=(1000, 3000),
                players=(300, 400)) -> list[Game]:
    """Basketball games with hundreds of players drawn from two large pools,
    so every player id recurs across many games."""
    rng = np.random.default_rng([seed, 2])
    pool = players[1] // 2 + 20
    rosters = league_rosters("W", 2, pool)
    out = []
    for i, (size, length) in enumerate(zip(
            spread(rng, players[0], players[1], games),
            spread(rng, events[0], events[1], games))):
        teams = (_pick(rng, rosters[0], size - size // 2),
                 _pick(rng, rosters[1], size // 2))
        out.append(make_game(rng, f"wide-{i:02d}", "basketball", teams, length))
    return out


# ---------------------------------------------------------------------------
# Playscript games: possession chains, the format's native shape
# ---------------------------------------------------------------------------

DEMO_TEAMS = (("Reds", ("A", "B", "C")), ("Blues", ("D", "E", "F")))
DEMO_STARTERS = ("A", "B", "D", "E")
DEMO_CHAINS = (
    "A B A F G", "D F E F D C B C A C B A G", "D C A C B A G",
    "D F 0 B C A G", "D F E F D G", "A B F G",
)


def chain_game(gid: str, teams, starters, chains, comments=()) -> Game:
    """Encode possession chains as playscript and record their arcs.

    Adjacent players are a pass (teammates; arc receiver -> passer) or a
    dispossession (opponents; arc loser -> winner); ``G`` / ``G:k`` scores
    k points for the player before it (arcs goal -> scorer); ``0`` is a
    dead ball.
    """
    ids = teams[0][1] + teams[1][1]
    index = {pid: i for i, pid in enumerate(ids)}
    side = {pid: t for t, (_, pids) in enumerate(teams) for pid in pids}
    goal = len(ids)
    src, dst, weight = [], [], []
    events = 0
    for chain in chains:
        prev = None
        for token in chain.split():
            if token == "0":
                events += prev is not None
                prev = None
            elif token.startswith("G"):
                src.append(goal)
                dst.append(index[prev])
                weight.append(int(token[2:]) if ":" in token else 1)
                events += 1
                prev = None
            else:
                if prev is not None:
                    a, b = (token, prev) if side[prev] == side[token] else (prev, token)
                    src.append(index[a])
                    dst.append(index[b])
                    weight.append(1)
                    events += 1
                prev = token
    text = "".join(f"#! {c}\n" for c in comments)
    text += "".join(f"#team {name} {' '.join(pids)}\n" for name, pids in teams)
    text += f"#starters {' '.join(starters)}\n"
    text += "".join(" -> ".join(chain.split()) + "\n" for chain in chains)
    return Game(
        gid=gid, teams=teams, fmt="playscript", text=text,
        events=events,
        play_text=text, play_events=events,
        src=np.array(src, dtype=np.int64), dst=np.array(dst, dtype=np.int64),
        weight=np.array(weight, dtype=np.int64),
    )


def demo_game() -> Game:
    """The bundled 3-on-3 demo game (sample_games/three_on_three.play)."""
    return chain_game("three_on_three", DEMO_TEAMS, DEMO_STARTERS, DEMO_CHAINS,
                      comments=("3-on-3 demo game, all baskets worth one point.",))


def pickup_games(seed: int, games: int = 8, per_team: int = 5,
                 lines=(60, 100)) -> list[Game]:
    """Small playscript games: two fixed five-player sides, possession
    chains of 1-8 touches ending in a score, a dead ball or nothing."""
    rng = np.random.default_rng([seed, 3])
    teams = (("Reds", tuple(f"R{i}" for i in range(1, per_team + 1))),
             ("Blues", tuple(f"U{i}" for i in range(1, per_team + 1))))
    out = []
    for g, n_lines in enumerate(spread(rng, lines[0], lines[1], games)):
        chains = []
        for _ in range(n_lines):
            t = int(rng.integers(2))
            player = teams[t][1][int(rng.integers(per_team))]
            tokens = [player]
            for _ in range(int(rng.integers(1, 9))):
                if rng.random() < 0.15:
                    t = 1 - t
                    player = teams[t][1][int(rng.integers(per_team))]
                else:
                    mates = [p for p in teams[t][1] if p != player]
                    player = mates[int(rng.integers(len(mates)))]
                tokens.append(player)
            end = rng.random()
            if end < 0.5:
                tokens.append(f"G:{int(rng.choice([1, 2, 3], p=[0.3, 0.5, 0.2]))}")
            elif end < 0.7:
                tokens.append("0")
            chains.append(" ".join(tokens))
        starters = teams[0][1][:3] + teams[1][1][:3]
        out.append(chain_game(f"pickup-{g}", teams, starters, chains))
    return out
