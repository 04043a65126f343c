"""Start-up cost: what ``import playrank``, a first game and each command pull in."""

import os
import subprocess
import sys

import pytest

import playrank

from conftest import REPO_ROOT

# Modules that are slow to import and that no first game needs: numpy.ma
# (pulled in by np.unique), numpy.random, packages playrank does not depend
# on, the csv module that render imports only on first use, and fractions
# and decimal, which no module of playrank imports.
COLD_MODULES = ("numpy.ma", "numpy.random", "scipy", "orjson", "csv", "fractions", "decimal")

# Each game ranked by power alone and by both solvers; after the first,
# whether this thread holds no T^t buffer (its direct solve took the hub).
FIRST_GAMES = """
import sys
import playrank
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        log = playrank.parse_game_text(fh.read())
    for solver in ("power", "both"):
        analysis = playrank.analyze_game(log, solver)
        for fmt in ("table", "json"):
            playrank.render_report(analysis.report, analysis.teams, fmt,
                                   solver_gap=analysis.solver_gap)
    if path == sys.argv[1]:
        print(getattr(playrank.ranking._workspace, "buf", None) is None)
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

# One command line, then its exit code and the modules it loaded.
COMMAND = """
import sys
from playrank.cli import main
code = main(sys.argv[1:])
print(code, " ".join(sorted(sys.modules)))
"""

# What ``import playrank`` loads, each submodule named on the command line,
# the names ``from playrank import *`` binds and ``dir(playrank)``.
EVERY_NAME = """
import sys
import playrank
print(" ".join(m for m in sys.modules if m.startswith("playrank.")) or "-")
print(" ".join(getattr(playrank, stem).__name__ for stem in sys.argv[1:]))
namespace = {}
exec("from playrank import *", namespace)
print(" ".join(sorted(namespace.keys() - {"__builtins__"})))
print(" ".join(dir(playrank)))
"""


def _run(script, *args):
    """The stdout lines of ``script`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                         capture_output=True, text=True, env=env, check=True, timeout=60)
    return out.stdout.splitlines()


def _loaded(script, *args):
    return _run(script, *args)[-1].split()


def test_first_games_stay_off_cold_imports(demo_playscript_path, demo_json_path, tmp_path):
    # a 350-player game, first: "both" takes the hub solve; the demos then
    # take the LU
    wide = tmp_path / "wide.json"
    wide.write_text(playrank.render_gamelog(
        playrank.generate_random_game(playrank.Sport.BASKETBALL, 350, 2_000, 1)),
        encoding="utf-8")
    no_buffer, modules = _run(FIRST_GAMES, wide, demo_playscript_path, demo_json_path)[-2:]
    assert no_buffer == "True"
    loaded = modules.split()
    assert "playrank.pipeline" in loaded
    cold = tuple(m + "." for m in COLD_MODULES)
    assert [m for m in loaded if m in COLD_MODULES or m.startswith(cold)] == []


def test_matrix_dumps_stay_off_fractions_and_decimal(demo_playscript_path):
    loaded = _loaded(DUMPS, demo_playscript_path)
    assert "playrank.render" in loaded
    assert {"fractions", "decimal"}.isdisjoint(loaded)


@pytest.mark.parametrize("command", ["rank", "compare"])
def test_playscript_commands_load_no_json(demo_playscript_path, command):
    games = [demo_playscript_path] * (2 if command == "compare" else 1)
    code, *loaded = _loaded(COMMAND, command, *games)
    assert code == "0" and "playrank.playscript" in loaded
    assert {"playrank.gamelog_json", "playrank.synth", "json"}.isdisjoint(loaded)


def test_json_batch_loads_no_playscript(demo_json_path, tmp_path):
    code, *loaded = _loaded(COMMAND, "batch", demo_json_path, "--format", "json",
                            "--output-dir", tmp_path)
    assert code == "0" and "playrank.gamelog_json" in loaded
    assert {"playrank.playscript", "playrank.synth"}.isdisjoint(loaded)


# The digraph-level functions: importable from their modules, not from the package.
UNEXPORTED = {
    "metrics": ("compute_ipm",),
    "pipeline": ("solve_stationary",),
    "ranking": ("arc_columns", "check_primitive", "stationary_direct", "stationary_power",
                "to_transition"),
}


def test_every_public_name_and_submodule_resolves_on_first_use():
    stems = sorted(p.stem for p in (REPO_ROOT / "src" / "playrank").glob("*.py")
                   if p.stem != "__init__")
    at_import, modules, star, listed = _run(EVERY_NAME, *stems)
    assert at_import == "-"
    assert modules.split() == [f"playrank.{stem}" for stem in stems]
    assert star.split() == sorted(playrank.__all__)
    assert {*playrank.__all__, *stems} <= set(listed.split())
    for name in playrank.__all__:  # the object its module binds
        obj = getattr(playrank, name)
        assert any(vars(getattr(playrank, stem)).get(name) is obj for stem in stems)
    with pytest.raises(AttributeError, match="no_such_name"):
        playrank.no_such_name
    for stem, names in UNEXPORTED.items():
        for name in names:
            assert callable(getattr(getattr(playrank, stem), name))
            with pytest.raises(AttributeError, match=name):
                getattr(playrank, name)
