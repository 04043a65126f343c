"""Start-up cost: what ``import playrank`` and a first game pull in."""

import os
import subprocess
import sys

from conftest import REPO_ROOT

# Modules that are slow to import and that no first game needs: numpy.ma
# (pulled in by np.unique), numpy.random, packages playrank does not depend
# on, the csv module that render imports only on first use, and fractions
# and decimal, which no module of playrank imports.
COLD_MODULES = ("numpy.ma", "numpy.random", "scipy", "orjson", "csv", "fractions", "decimal")

FIRST_GAMES = """
import sys
import playrank
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        log = playrank.parse_game_text(fh.read())
    analysis = playrank.analyze_game(log)
    for fmt in ("table", "json"):
        playrank.render_report(analysis.report, analysis.teams, fmt,
                               solver_gap=analysis.solver_gap)
print(" ".join(sorted(sys.modules)))
"""

# Every matrix dump of the demo, the exact stochastic forms included.
DUMPS = """
import sys
import playrank
with open(sys.argv[1], encoding="utf-8") as fh:
    graph = playrank.build_digraph(playrank.parse_game_text(fh.read()))
for form in playrank.render.MATRIX_FORMS:
    playrank.render_matrix(graph, form)
print(" ".join(sorted(sys.modules)))
"""


def _loaded(script, *paths):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script, *map(str, paths)],
                         capture_output=True, text=True, env=env, check=True, timeout=60)
    return out.stdout.split()


def test_first_games_stay_off_cold_imports(demo_playscript_path, demo_json_path):
    loaded = _loaded(FIRST_GAMES, demo_playscript_path, demo_json_path)
    assert "playrank.pipeline" in loaded
    cold = tuple(m + "." for m in COLD_MODULES)
    assert [m for m in loaded if m in COLD_MODULES or m.startswith(cold)] == []


def test_matrix_dumps_stay_off_fractions_and_decimal(demo_playscript_path):
    loaded = _loaded(DUMPS, demo_playscript_path)
    assert "playrank.render" in loaded
    assert {"fractions", "decimal"}.isdisjoint(loaded)
