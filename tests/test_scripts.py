"""The scripts the README documents run end to end."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

from playrank.render import MATRIX_FORMS

from conftest import REPO_ROOT


def test_rank_demo_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "rank_demo.py")],
        capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "== standings (JSON twin carries the final score) =="
    assert lines[1] == "Player | Team | IPM"
    assert lines[-1].startswith("stationary solve: method=power, ")


def _exact_outputs():
    spec = importlib.util.spec_from_file_location(
        "exact_outputs", REPO_ROOT / "scripts" / "exact_outputs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_exact_outputs_digests_a_small_game_and_its_mutants():
    script = _exact_outputs()
    game = script.gen.season(1, games=3, events=(10, 14), players=(6, 8))[0]
    clean = script.digest(game.text, "json")
    assert list(clean) == list(script.FIELDS) and clean["error"] == "-"
    assert all(re.fullmatch("[0-9a-f]{64}", v) for k, v in clean.items() if k != "error")
    assert script.digest(game.play_text, "playscript")["error"] == "-"
    lines = {name: script.digest(json.dumps(doc), "json")
             for name, doc in script._mutants("m", json.loads(game.text))}
    errors = [name for name, d in lines.items() if d["error"] != "-"]
    violations = [name for name, d in lines.items() if d["counts"] == "-" and d["error"] == "-"]
    assert any(name.endswith(":role-int") for name in errors)
    assert any(name.endswith("=ghost") for name in violations)
    assert any(name.endswith("=1180591620717411303424") for name in violations)
    assert all(lines[name]["matrix"] == "-" for name in errors + violations)
    log = script.parse_gamelog(game.text)
    assert clean["gamelog"] == hashlib.sha256(script.render_gamelog(log).encode()).hexdigest()
    assert all(lines[name]["gamelog"] == "-" for name in errors)
    huge = next(doc for name, doc in script._mutants("m", json.loads(game.text))
                if name.endswith("=1180591620717411303424"))  # 2**70, kept in the log's odd
    text = script.render_gamelog(script.parse_gamelog(json.dumps(huge)))
    assert "1180591620717411303424" in text
    assert script.digest(json.dumps(huge), "json")["gamelog"] == \
        hashlib.sha256(text.encode()).hexdigest() != clean["gamelog"]


def test_exact_outputs_digests_the_float_transition_matrix():
    script = _exact_outputs()
    game = script.gen.season(1, games=3, events=(10, 14), players=(6, 8))[0]
    g = script.analyze_game(script.parse_gamelog(game.text)).digraph
    floats = g.counts / g.row_sums[:, None]
    want = f"{floats.shape}float64".encode() + floats.tobytes(order="C")
    assert script.digest(game.text, "json")["matrix"] == hashlib.sha256(want).hexdigest()
    other = script.gen.season(1, games=3, events=(10, 14), players=(6, 8))[1]
    assert script.digest(other.text, "json")["matrix"] != hashlib.sha256(want).hexdigest()


def test_exact_outputs_digests_every_matrix_dump_of_small_games_only():
    script = _exact_outputs()
    game = script.gen.season(1, games=3, events=(10, 14), players=(6, 8))[0]
    g = script.build_digraph(script.parse_gamelog(game.text))
    digests = script.digest(game.text, "json")
    assert sorted(script.MATRIX_DUMPS.values()) == sorted(MATRIX_FORMS)
    for field, form in script.MATRIX_DUMPS.items():
        dump = script.render_matrix(g, form)
        assert digests[field] == hashlib.sha256(dump.encode()).hexdigest()
    assert len({digests[field] for field in script.MATRIX_DUMPS}) == 3
    wide = script.gen.wide_roster(1, games=1)[0]
    assert len(wide.players) + 1 > script.RATIONAL_MAX_NODES
    wide_digests = script.digest(wide.text, wide.fmt)
    assert all(wide_digests[field] == "-" for field in script.MATRIX_DUMPS)


def test_exact_outputs_digests_each_comparison():
    script = _exact_outputs()
    lines = dict(script.comparisons(1, 3))
    assert list(lines) == ["s1/compare/season0", "s1/compare/wide_roster"]
    for digests in lines.values():
        assert list(digests) == ["table", "csv", "means"]
        assert all(re.fullmatch("[0-9a-f]{64}", v) for v in digests.values())
    assert lines["s1/compare/season0"] != lines["s1/compare/wide_roster"]


def test_exact_outputs_digests_playscript_mutants_solvers_and_error_kinds():
    script = _exact_outputs()
    game = script.gen.season(1, games=3, events=(10, 14), players=(6, 8))[0]
    clean = script.digest(game.play_text, "playscript")
    assert clean["direct"] != clean["json"]
    assert all(re.fullmatch("[0-9a-f]{64}", clean[k]) for k in ("direct", "both"))
    mutants = dict(script._play_mutants("m", game.play_text))
    for fault in ("third-team", "unknown-directive", "starter-ghost", "team0-declares-G:2"):
        assert script.digest(mutants[f"m/{fault}"], "playscript")["error"] != "-"
    tokens = [name for name in mutants if re.search(r"\.t\d[=+-]", name)]
    assert len(tokens) > len(script.PLAY_TOKENS) * 10
    assert any(script.digest(mutants[n], "playscript")["counts"] != "-" for n in tokens)
    token, player = (script.PlayscriptError(kind, 3, 1, "x")
                     for kind in ("unknown-token", "undeclared-player"))
    assert script._error(token) != script._error(player)  # same text, other kind


def test_exact_outputs_solve_field_rounds_the_ipms_of_each_solver():
    script = _exact_outputs()
    game = script.gen.season(1, games=3, events=(10, 14), players=(6, 8))[0]
    log = script.parse_gamelog(game.text)
    analyses = [script.analyze_game(log, solver) for solver in ("power", "direct", "both")]
    texts = list(map(script.solve_text, analyses))
    want = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert script.digest(game.text, "json")["solve"] == want
    assert texts[0].splitlines()[0] == f"power {analyses[0].rank.iterations}"
    assert texts[1].startswith("direct 0\n")
    players = analyses[0].report.players
    assert texts[0].splitlines()[1:] == [f"{p.player} {p.ipm:.10f}" for p in players]

    def moved(by):
        report = analyses[0].report._replace(players=[p._replace(ipm=p.ipm + by) for p in players])
        return script.solve_text(SimpleNamespace(rank=analyses[0].rank, report=report))

    assert moved(1e-13) == texts[0] != moved(1e-6)
