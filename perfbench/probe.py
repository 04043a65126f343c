"""Set-up probe, run in a fresh interpreter by the benchmark.

Reads one game from stdin, then times ``import playrank`` plus that first
game (parse, analyze, render) and prints the seconds taken at the reference
machine speed (``clock.py``), measured before and after.

Usage: python probe.py <json|playscript> <solver> < game
"""

import sys
from time import perf_counter

from clock import PROBE_REFERENCE_S, speed_probe

fmt, solver = sys.argv[1], sys.argv[2]
text = sys.stdin.read()
before = speed_probe()
t0 = perf_counter()
from playrank import analyze_game, parse_gamelog, parse_playscript, render_report  # noqa: E402

log = parse_gamelog(text) if fmt == "json" else parse_playscript(text)
analysis = analyze_game(log, solver=solver)
render_report(analysis.report, analysis.teams, "json", solver_gap=analysis.solver_gap)
took = perf_counter() - t0
print(took * PROBE_REFERENCE_S / ((before + speed_probe()) / 2))
