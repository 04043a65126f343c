"""Print how far the direct solve's two routes lie from a reference on the
benchmark's wide games, so the hub solve's accuracy can be set against the
LU's.

    PYTHONPATH=src python scripts/direct_accuracy.py SEED [SEED ...]

For each ``wide_roster`` game that ``perfbench/gen.py`` makes for a seed it
prints the game, k, the arcs, the route ``stationary_direct`` takes
(``hub`` or ``lu``), and then, for the hub solve (``_hub_solve``; "-" if it
refuses the game) and for the LU, the largest distance of a player's IPM
from the reference IPM, and the number of players whose IPM rounded to
``SOLVE_DECIMALS`` places (as ``scripts/exact_outputs.py`` prints it in its
``solve`` field) differs from the reference IPM rounded the same way.  The
reference is ``refined_stationary`` from ``tests/propositions.py``: the LU's
vector refined with long double residuals, so it needs a long double wider
than float64 (x86).  A last line gives the largest distance and the total
count of each route over all the games.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests"), str(ROOT / "scripts")]

import numpy as np  # noqa: E402

import gen  # noqa: E402  (the benchmark's generator, read only)
from exact_outputs import SOLVE_DECIMALS  # noqa: E402
from playrank import parse_gamelog  # noqa: E402
from playrank import ranking  # noqa: E402
from playrank.pipeline import build_digraph  # noqa: E402
from propositions import refined_stationary  # noqa: E402


def ipms(v) -> np.ndarray:
    """Each player's IPM from a stationary vector, as ``compute_ipm`` has it."""
    players = v[:-1]
    return 50 * len(players) * players / players.sum()


def rounded(ipm) -> list[str]:
    return [f"{float(x):.{SOLVE_DECIMALS}f}" for x in ipm]


def lu(t: ranking.PlayDigraph) -> np.ndarray:
    """``stationary_direct``'s LU vector, the hub solve kept out."""
    crossover, ranking.HUB_CROSSOVER = ranking.HUB_CROSSOVER, float("inf")
    try:
        return ranking.stationary_direct(t).values
    finally:
        ranking.HUB_CROSSOVER = crossover


def main(seeds: list[int]) -> None:
    worst, off = {"hub": 0.0, "lu": 0.0}, {"hub": 0, "lu": 0}
    print("game k arcs route hub_ipm_error lu_ipm_error hub_off lu_off")
    for seed in seeds:
        for game in gen.wide_roster(seed):
            t = build_digraph(parse_gamelog(game.text))
            reference = ipms(refined_stationary(t))
            hub = ranking._hub_solve(t)
            vectors = {"hub": None if hub is None else hub[0], "lu": lu(t)}
            errors, counts = {}, {}
            for route, v in vectors.items():
                if v is None:
                    errors[route] = counts[route] = "-"
                    continue
                error = float(np.abs(ipms(v) - reference).max())
                count = sum(a != b for a, b in zip(rounded(ipms(v)), rounded(reference)))
                worst[route], off[route] = max(worst[route], error), off[route] + count
                errors[route], counts[route] = f"{error:.2e}", str(count)
            k = len(t.nodes)
            route = "hub" if hub is not None and k ** 3 > ranking.HUB_CROSSOVER * len(t.src) else "lu"
            print(f"s{seed}/{game.gid} {k} {len(t.src)} {route} "
                  + " ".join([*errors.values(), *counts.values()]))
    print(f"max hub {worst['hub']:.2e} lu {worst['lu']:.2e}; "
          f"IPMs off the reference's {SOLVE_DECIMALS}th decimal: hub {off['hub']} lu {off['lu']}")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [1])
