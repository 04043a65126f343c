"""Output oracle, computed from the generator's recorded arcs alone.

Nothing here imports playrank: the expected adjacency matrix is the paper's
initial digraph (player <-> goal arcs and the goal self-loop) plus one
``np.add.at`` over the recorded arcs, and the stationary vector comes from
``numpy.linalg.solve`` on (T^t - I) v = 0 with the last equation replaced by
sum(v) = 1.  Each check returns None when the output is right and a short
reason otherwise.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Full-precision IPMs must match to 1e-9 relative.  An absolute 1e-9 is finer
# than power iteration's documented stopping rule (L1 step <= 1e-12 on the
# rank vector) delivers once IPM = 50 n r / (1 - r_goal) scales that error
# by about 50 n: at 400 players the observed error is about 2e-9 absolute.
IPM_TOL = 1e-9
# Text tables round IPMs to hundredths, so they are checked to half a cent.
TABLE_TOL = 0.005 + 1e-9


def expected_adjacency(game) -> np.ndarray:
    n = len(game.players)
    counts = np.zeros((n + 1, n + 1), dtype=np.int64)
    counts[:n, n] = 1
    counts[n, :] = 1
    np.add.at(counts, (game.src, game.dst), game.weight)
    return counts


def expected_ipms(game) -> dict[str, float]:
    """Player id -> IPM, where IPM_i = 50 n r_i / sum_j r_j over players."""
    counts = expected_adjacency(game)
    k = len(counts)
    t = counts / counts.sum(axis=1, keepdims=True)
    a = t.T - np.eye(k)
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    v = np.linalg.solve(a, b)
    ranks = v[:-1]
    ipm = 50.0 * len(ranks) * ranks / ranks.sum()
    return dict(zip(game.players, ipm.tolist()))


def _not_finite(got: dict[str, float]) -> list[str]:
    """Players whose value is not a finite number (NaN would pass every
    ``<=``-style tolerance test unnoticed)."""
    return [p for p, v in got.items()
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)]


def _worst(got: dict[str, float], want: dict[str, float], rel: bool) -> float:
    return max(abs(got[p] - want[p]) / (max(1.0, abs(want[p])) if rel else 1.0)
               for p in want)


def _check_ipms(got: dict[str, float], want: dict[str, float], rel: bool):
    if set(got) != set(want):
        return f"players differ: {sorted(set(got) ^ set(want))[:3]}"
    bad = _not_finite(got)
    if bad:
        return f"IPM not a finite number for {sorted(bad)[:3]}"
    tol = IPM_TOL if rel else TABLE_TOL
    worst = _worst(got, want, rel)
    if not worst <= tol:
        return f"IPM off by {worst:.3e} (> {tol:.0e})"
    mean = sum(got.values()) / len(got)
    if not abs(mean - 50.0) <= tol:
        return f"IPM mean {mean!r} is not 50"
    return None


def check_report_json(text: str, want: dict[str, float]):
    """A ``render_report(..., "json")`` document: players in standings
    order, sorted by IPM."""
    try:
        players = json.loads(text)["players"]
        got = {p["player"]: p["ipm"] for p in players}
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable JSON report: {exc!r}"
    problem = _check_ipms(got, want, True)
    if problem:
        return problem
    ipms = [p["ipm"] for p in players]
    if any(a < b for a, b in zip(ipms, ipms[1:])):
        return "standings not sorted by IPM"
    return None


def check_table(text: str, want: dict[str, float]):
    """A standings table (``playrank rank`` default output)."""
    lines = text.splitlines()
    if not lines or lines[0] != "Player | Team | IPM":
        return "missing standings header"
    got = {}
    for line in lines[1:]:
        if not line:
            break
        parts = line.split(" | ")
        if len(parts) != 3:
            return f"bad standings line {line!r}"
        try:
            got[parts[0]] = float(parts[2])
        except ValueError:
            return f"bad standings IPM in {line!r}"
    return _check_ipms(got, want, False)


def expected_means(wants: dict[str, dict[str, float]]) -> dict[str, float]:
    """Cross-game mean IPM per player over the games they appear in."""
    seen: dict[str, list[float]] = {}
    for want in wants.values():
        for pid, ipm in want.items():
            seen.setdefault(pid, []).append(ipm)
    return {pid: sum(v) / len(v) for pid, v in seen.items()}


def check_comparison(table, means: dict[str, float]):
    """A ``CrossGameTable`` from ``compare_games``."""
    got = {row.player: row.mean for row in table.rows}
    if set(got) != set(means):
        return "compared players differ"
    if _not_finite(got):
        return "cross-game mean not a finite number"
    worst = _worst(got, means, True)
    if not worst <= IPM_TOL:
        return f"cross-game mean off by {worst:.3e}"
    return None


def check_comparison_table(text: str, means: dict[str, float]):
    """``playrank compare`` table output: last column is the mean."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("Player | "):
        return "missing comparison header"
    got = {}
    for line in lines[1:]:
        parts = line.split(" | ")
        try:
            got[parts[0]] = float(parts[-1])
        except ValueError:
            return f"bad comparison mean in {line!r}"
    if set(got) != set(means):
        return "compared players differ"
    if _not_finite(got):
        return "cross-game mean not a finite number"
    worst = _worst(got, means, False)
    if not worst <= TABLE_TOL:
        return f"cross-game mean off by {worst:.3e}"
    return None


def check_batch(out_dir: Path, games, wants: dict[str, dict[str, float]]):
    """``playrank batch --format json``: one report per game plus summary.csv."""
    summary = out_dir / "summary.csv"
    if not summary.is_file():
        return "summary.csv missing"
    with summary.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != len(games) + 1:
        return f"summary.csv has {len(rows) - 1} rows, expected {len(games)}"
    for game in games:
        report = out_dir / f"{game.gid}.report.json"
        if not report.is_file():
            return f"{report.name} missing"
        problem = check_report_json(report.read_text(encoding="utf-8"),
                                    wants[game.gid])
        if problem:
            return f"{report.name}: {problem}"
    return None
