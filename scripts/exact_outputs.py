"""Print one digest line per input, so two versions of playrank can be
compared for exactly the same outputs.

    PYTHONPATH=src python scripts/exact_outputs.py [--games N] SEED [SEED ...]

Run it once against each version's ``src/`` and ``diff`` the two outputs.
The inputs are, per seed, the games ``perfbench/gen.py`` makes for the
benchmark (``season``, ``wide_roster`` and the playscript pickup games),
each as JSON and as playscript, plus mutated corpora built from small
games of that seed.  The JSON mutants have one role per event replaced (by
a teammate, an opponent, the other role's player and an id on neither
roster), integer fields out of range, and one event object per schema
fault.  The playscript mutants have one sequence token replaced, one
inserted or one deleted (see ``PLAY_TOKENS``), and one header fault each
(see ``_play_mutants``).  Then the ``generate_random_game`` output of seeds
0-20 in each sport.

Each line names the input, then gives the SHA-256 of the digraph's arc
``counts``, of the float64 transition matrix ``counts / row_sums`` (C-ordered
bytes) as ``matrix``, so the chain is compared bit for bit, of each
``render_matrix`` dump (``MATRIX_DUMPS``: ``adjacency``, the exact
row-stochastic one as ``rational`` and the column-stochastic one as
``column``; games of at most ``RATIONAL_MAX_NODES`` nodes, "-" above, as a
dump grows with the square of the nodes), of the report in
``json``, ``table`` and ``csv``, of the JSON report with ``--solver
direct`` and with ``--solver both`` (which adds the power/direct gap), of
``solve``, the text ``solve_text`` gives for the default, direct and
``both`` reports in turn (a failed solve gives its error class), of the
``validate_game`` list and of the ``error`` (class, ``kind`` where the
error has one, and text); "-" marks a stage that did not run (a parse
error, or a log with violations).  ``api`` digests the same log rebuilt from
its event objects, ``GameLog(sport, teams, events, metadata)``: its
violations and, when it has none, its arc counts.  ``gamelog`` digests the
parsed log written back as JSON, ``render_gamelog(log)``, or its error, with
or without violations, so out-of-range integers reach the writer too.
``solve`` lets a ``diff`` tell IPMs that moved in their last digits (``json``,
``csv`` and ``both`` differ, ``solve`` does not) from wrong IPMs or another
iteration count (``solve`` differs too).

After each seed's inputs come its comparison lines: one per ``season``
round of 24 games, in order, and one for the ``wide_roster`` set.  Each
gives the SHA-256 of ``render_comparison`` of the round's ``compare_games``
table as ``table`` and as ``csv``, and of the ``repr`` of every row's mean,
one per line, as ``means``.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402  (the benchmark's generator, read only)

from playrank import (  # noqa: E402
    GameLog, PlayscriptError, RankingError, SchemaError, Sport, analyze_game,
    build_digraph, compare_games, generate_random_game, parse_gamelog,
    parse_playscript, render_comparison, render_gamelog, render_matrix,
    render_report, validate_game,
)

FIELDS = ("counts", "matrix", "adjacency", "rational", "column", "json", "table", "csv",
          "direct", "both", "solve", "violations", "error", "api", "gamelog")
SOLVE_DECIMALS = 10  # the IPMs of ``solve``: 1e-10, far above a change of summation order
MATRIX_DUMPS = {"adjacency": "adjacency", "rational": "row-stochastic",
                "column": "column-stochastic"}
RATIONAL_MAX_NODES = 64
ROUND = 24  # season games per comparison, as the benchmark's rounds
SYNTH_SEEDS = range(21)

# One schema fault per entry, applied to a copy of one event object.
SCHEMA_FAULTS = {
    "missing-role": lambda ev, role: {k: v for k, v in ev.items() if k != role},
    "extra-field": lambda ev, role: {**ev, "note": "x"},
    "renamed-field": lambda ev, role: {("who" if k == role else k): v for k, v in ev.items()},
    "role-int": lambda ev, role: {**ev, role: 5},
    "role-list": lambda ev, role: {**ev, role: [ev[role]]},
    "role-null": lambda ev, role: {**ev, role: None},
    "role-bool": lambda ev, role: {**ev, role: True},
    "role-object": lambda ev, role: {**ev, role: {"id": ev[role]}},
    "type-unknown": lambda ev, role: {**ev, "type": "alley_oop"},
    "type-int": lambda ev, role: {**ev, "type": 3},
    "type-missing": lambda ev, role: {k: v for k, v in ev.items() if k != "type"},
    "event-list": lambda ev, role: [ev],
    "event-null": lambda ev, role: None,
}
INT_FAULTS = (0, 5, -1, 2**63 - 1, 2**63, 2**70, -2**70, True, False, 2.0, "2", None, [2])
# Tokens a playscript mutant puts in place of, or next to, a sequence token:
# scores in and out of range, a dead ball, blanks, an id on neither roster, punctuation.
PLAY_TOKENS = ("G", *(f"G:{k}" for k in range(6)), "G:01", "G:", "G:x", "0", "", " \t ",
               "ghost", "?!")


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _array(a) -> bytes:
    """Shape, dtype and C-ordered bytes of ``a``."""
    return f"{a.shape}{a.dtype}".encode() + a.tobytes(order="C")


def _api_digest(log) -> str:
    """Violations and, when clean, arc counts of ``log`` rebuilt from its objects."""
    api = GameLog(log.sport, log.teams, log.events, log.metadata)
    violations = validate_game(api)
    text = "\n".join(map(str, violations)).encode()
    return _sha(text if violations else text + _array(build_digraph(api).counts))


def _error(exc: Exception) -> str:
    return _sha(f"{type(exc).__name__} {getattr(exc, 'kind', '-')}: {exc}")


def solve_text(analysis) -> str:
    """The solver's method and iterations, then each player's IPM rounded
    to ``SOLVE_DECIMALS`` places, in roster order."""
    rank = analysis.rank
    return f"{rank.method} {rank.iterations}\n" + "".join(
        f"{p.player} {p.ipm:.{SOLVE_DECIMALS}f}\n" for p in analysis.report.players)


def digest(text: str, fmt: str) -> dict[str, str]:
    """The digests of one input document; "-" for the stages not reached."""
    out = dict.fromkeys(FIELDS, "-")
    try:
        log = parse_gamelog(text) if fmt == "json" else parse_playscript(text)
    except (SchemaError, PlayscriptError) as exc:
        out["error"] = _error(exc)
        return out
    out["api"] = _api_digest(log)
    try:
        out["gamelog"] = _sha(render_gamelog(log))
    except ValueError as exc:
        out["gamelog"] = _error(exc)
    violations = validate_game(log)
    out["violations"] = _sha("\n".join(map(str, violations)))
    if violations:
        return out
    try:
        analysis = analyze_game(log)
    except RankingError as exc:
        out["error"] = _error(exc)
        return out
    out["counts"] = _sha(_array(analysis.digraph.counts))
    out["matrix"] = _sha(_array(analysis.digraph.counts / analysis.digraph.row_sums[:, None]))
    if len(analysis.digraph.nodes) <= RATIONAL_MAX_NODES:
        for field, form in MATRIX_DUMPS.items():
            out[field] = _sha(render_matrix(analysis.digraph, form))
    for fmt in ("json", "table", "csv"):
        out[fmt] = _sha(render_report(analysis.report, analysis.teams, fmt))
    solves = [solve_text(analysis)]
    for solver in ("direct", "both"):
        try:
            other = analyze_game(log, solver)
            out[solver] = _sha(render_report(other.report, other.teams, "json", other.solver_gap))
            solves.append(solve_text(other))
        except RankingError as exc:
            out[solver] = _error(exc)
            solves.append(f"{type(exc).__name__}\n")
    out["solve"] = _sha("".join(solves))
    return out


def _mutants(name: str, doc: dict):
    """(name, document) for each single mutation of ``doc``."""
    events = doc["events"]
    home, away = ([p["id"] for p in t["players"]] for t in doc["teams"])
    for i, ev in enumerate(events):
        roles = [k for k in ev if k not in ("type", "points", "made")]
        for r, role in enumerate(roles):
            on_home = ev[role] in home
            replacements = {
                "teammate": (home if on_home else away)[0],
                "opponent": (away if on_home else home)[0],
                "ghost": f"ghost{i}",
            }
            if len(roles) == 2:
                replacements["same"] = ev[roles[1 - r]]
            for how, pid in replacements.items():
                mutant = copy.deepcopy(doc)
                mutant["events"][i][role] = pid
                yield f"{name}/e{i}.{role}={how}", mutant
        for field in ("points", "made"):
            if field in ev:
                for value in INT_FAULTS:
                    mutant = copy.deepcopy(doc)
                    mutant["events"][i][field] = value
                    yield f"{name}/e{i}.{field}={value!r}", mutant
        if roles:
            for fault, change in SCHEMA_FAULTS.items():
                mutant = copy.deepcopy(doc)
                mutant["events"][i] = change(ev, roles[-1])
                yield f"{name}/e{i}:{fault}", mutant
    for t, team in enumerate(doc["teams"]):
        mutant = copy.deepcopy(doc)
        mutant["teams"][t]["players"].append({"id": home[0]})
        yield f"{name}/team{t}-repeats-{home[0]}", mutant
    mutant = copy.deepcopy(doc)
    mutant["events"].append({"type": "score", "scorer": home[0], "points": 1})
    yield f"{name}/score-with-points", mutant


def _play_mutants(name: str, text: str):
    """(name, document) for each single mutation of playscript ``text``:
    each of ``PLAY_TOKENS`` in place of a sequence token or inserted before
    one or at the line's end, each sequence token deleted, and one document
    per header fault."""
    lines = text.splitlines()
    teams = [i for i, line in enumerate(lines) if line.startswith("#team ")]
    starters = next(i for i, line in enumerate(lines) if line.startswith("#starters"))
    first = lines[teams[0]].split()[2]

    def edit(i: int, line: str) -> str:
        return "\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n"

    for i, line in enumerate(lines):
        if line.startswith("#"):
            continue
        tokens = line.split(" -> ")
        for t in range(len(tokens) + 1):
            head, tail = tokens[:t], tokens[t:]
            for new in PLAY_TOKENS:
                yield f"{name}/l{i}.t{t}+{new!r}", edit(i, " -> ".join(head + [new] + tail))
                if tail:
                    yield f"{name}/l{i}.t{t}={new!r}", edit(i, " -> ".join(head + [new] + tail[1:]))
            if tail:
                yield f"{name}/l{i}.t{t}-", edit(i, " -> ".join(head + tail[1:]))
    yield f"{name}/third-team", text + "#team Greens X1\n"
    yield f"{name}/team1-repeats-{first}", edit(teams[1], f"{lines[teams[1]]} {first}")
    for pid in ("G:2", "A->B"):
        yield f"{name}/team0-declares-{pid}", edit(teams[0], f"{lines[teams[0]]} {pid}")
    yield f"{name}/unknown-directive", edit(starters, "#roster " + lines[starters][10:])
    yield f"{name}/starter-ghost", edit(starters, f"{lines[starters]} ghost")


def inputs(seed: int, games: int):
    """(name, text, format) for every input of one seed."""
    for game in (gen.season(seed, games=games) + gen.wide_roster(seed, games=max(1, games // 10))
                 + gen.pickup_games(seed) + [gen.demo_game()]):
        yield f"s{seed}/{game.gid}/{game.fmt}", game.text, game.fmt
        yield f"s{seed}/{game.gid}/play", game.play_text, "playscript"
    for game in gen.season(seed, games=3, events=(10, 14), players=(6, 8)):
        for name, doc in _mutants(f"s{seed}/mut/{game.gid}", json.loads(game.text)):
            yield name, json.dumps(doc), "json"
        for name, doc in _play_mutants(f"s{seed}/mut/{game.gid}/play", game.play_text):
            yield name, doc, "playscript"


def comparisons(seed: int, games: int):
    """(name, digests) of the comparison of each ``season`` round of
    ``ROUND`` games and of the ``wide_roster`` set of one seed."""
    season = gen.season(seed, games=games)
    rounds = [(f"s{seed}/compare/season{i // ROUND}", season[i:i + ROUND])
              for i in range(0, len(season), ROUND)]
    rounds.append((f"s{seed}/compare/wide_roster", gen.wide_roster(seed, games=max(1, games // 10))))
    for name, group in rounds:
        table = compare_games({g.gid: analyze_game(parse_gamelog(g.text)).report for g in group})
        yield name, {
            "table": _sha(render_comparison(table, "table")),
            "csv": _sha(render_comparison(table, "csv")),
            "means": _sha("\n".join(repr(row.mean) for row in table.rows)),
        }


def synth_inputs():
    for seed in SYNTH_SEEDS:
        for sport in Sport:
            log = generate_random_game(sport, 2 + seed % 12, 25 * seed, seed)
            yield f"synth/{sport.value}/{seed}", render_gamelog(log)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--games", type=int, default=240,
                        help="season games per seed (a multiple of 3)")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for name, text, fmt in inputs(seed, args.games):
            print(name, *(f"{k}={v}" for k, v in digest(text, fmt).items()))
        for name, digests in comparisons(seed, args.games):
            print(name, *(f"{k}={v}" for k, v in digests.items()))
    for name, text in synth_inputs():
        print(name, f"synth={_sha(text)}", *(f"{k}={v}" for k, v in digest(text, "json").items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
