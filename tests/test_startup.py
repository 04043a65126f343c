"""Start-up cost: what ``import playrank`` and a first game pull in."""

import os
import subprocess
import sys

from conftest import REPO_ROOT

# Modules that are slow to import and that no first game needs: numpy.ma
# (pulled in by np.unique), numpy.random, packages playrank does not depend
# on, and the csv, fractions and decimal modules that render and ranking
# import only on first use.
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


def test_first_games_stay_off_cold_imports(demo_playscript_path, demo_json_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", FIRST_GAMES, str(demo_playscript_path), str(demo_json_path)],
        capture_output=True, text=True, env=env, check=True, timeout=60)
    loaded = out.stdout.split()
    assert "playrank.pipeline" in loaded
    cold = tuple(m + "." for m in COLD_MODULES)
    assert [m for m in loaded if m in COLD_MODULES or m.startswith(cold)] == []
