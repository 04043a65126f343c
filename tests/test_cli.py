import argparse
import contextlib
import errno
import io
import json
import os
import re
import sys
import time
import tracemalloc
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from playrank import cli
from playrank.cli import main
from playrank.gamelog_json import SchemaError, render_gamelog
from playrank.model import MAX_PLAYERS, Sport
from playrank.pipeline import parse_game_text
from playrank.playscript import PlayscriptError
from playrank.ranking import SingularSystemError
from playrank.render import COMPARISON_FORMATS, REPORT_FORMATS
from playrank.synth import generate_random_game

from golden import DEMO_ADJACENCY


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def bad_playscript(tmp_path):
    path = tmp_path / "broken.play"
    path.write_text("#team Reds A B\n#team Blues D E\nA -> Q\n", encoding="utf-8")
    return path


@pytest.fixture()
def invalid_json_game(tmp_path):
    doc = {
        "schema_version": "1",
        "sport": "basketball",
        "teams": [
            {"name": "X", "players": [{"id": "x1"}, {"id": "x2"}]},
            {"name": "Y", "players": [{"id": "y1"}]},
        ],
        "events": [{"type": "pass", "passer": "x1", "receiver": "y1"}],
    }
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# --- rank -------------------------------------------------------------------

def test_rank_playscript_table(capsys, demo_playscript_path):
    code, out, err = run(capsys, "rank", str(demo_playscript_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Player | Team | IPM"
    assert lines[1] == "C | Reds | 64.66"


def test_rank_solver_both_reports_gap(capsys, demo_playscript_path):
    code, out, _ = run(capsys, "rank", str(demo_playscript_path), "--solver", "both")
    assert code == 0
    gap_line = next(l for l in out.splitlines() if l.startswith("solver cross-check"))
    assert float(gap_line.rsplit(" ", 1)[1]) <= 1e-9


def test_rank_json_format(capsys, demo_json_path):
    code, out, _ = run(capsys, "rank", str(demo_json_path), "--format", "json",
                       "--solver", "direct")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "direct"
    assert [t["label"] for t in doc["teams"]] == ["winner", "loser"]


def test_rank_parse_error_exits_2(capsys, bad_playscript):
    code, out, err = run(capsys, "rank", str(bad_playscript))
    assert code == 2
    assert "line 3" in err
    assert out == ""


def test_rank_validation_error_exits_1(capsys, invalid_json_game):
    code, out, err = run(capsys, "rank", str(invalid_json_game))
    assert code == 1
    assert "pass endpoints on opposite teams" in err


def test_rank_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "rank", str(tmp_path / "nope.play"))
    assert code == 2
    assert err


@pytest.fixture()
def non_utf8_game(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    return path


@pytest.mark.parametrize("command", ["rank", "matrix", "validate"])
def test_non_utf8_input_exits_2(capsys, non_utf8_game, command):
    code, out, err = run(capsys, command, str(non_utf8_game))
    assert code == 2 and out == ""
    assert err.startswith(f"{non_utf8_game}: not UTF-8 text")


@pytest.mark.parametrize("input_format", ["auto", "given"])
@pytest.mark.parametrize("demo", ["demo_json_path", "demo_playscript_path"])
def test_rank_reads_through_a_byte_order_mark(capsys, tmp_path, request, demo, input_format):
    path = request.getfixturevalue(demo)
    with_bom = tmp_path / path.name
    with_bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    fmt = [] if input_format == "auto" else [
        "--input-format", "json" if path.suffix == ".json" else "playscript"]
    expected = run(capsys, "rank", str(path), *fmt)
    assert expected[0] == 0
    assert run(capsys, "rank", str(with_bom), *fmt) == expected


def test_non_utf8_offset_counts_the_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xef\xbb\xbf{\xff}")
    code, _, err = run(capsys, "rank", str(path))
    assert code == 2
    assert err == f"{path}: not UTF-8 text (invalid start byte at byte 4)\n"


def test_rank_output_file(capsys, tmp_path, demo_playscript_path):
    out_path = tmp_path / "report.txt"
    code, out, _ = run(capsys, "rank", str(demo_playscript_path), "-o", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text(encoding="utf-8").startswith("Player | Team | IPM")


def test_rank_explicit_input_format_mismatch(capsys, demo_json_path):
    code, _, err = run(capsys, "rank", str(demo_json_path),
                       "--input-format", "playscript")
    assert code == 2


def _basketball_doc(events, names=("X", "Y")):
    return json.dumps({
        "schema_version": "1",
        "sport": "basketball",
        "teams": [
            {"name": names[0], "players": [{"id": "x1"}, {"id": "x2"}]},
            {"name": names[1], "players": [{"id": "y1"}]},
        ],
        "events": events,
    })


@pytest.mark.parametrize("text, reason", [
    (_basketball_doc([{"type": "foul_with_free_throws", "fouler": "y1",
                       "fouled": "x1", "made": 10**20}]),
     f"event 0: foul_with_free_throws needs made >= 1 and <= 3, got {10**20}"),
    (_basketball_doc(20 * [{"type": "foul_with_free_throws", "fouler": "y1",
                            "fouled": "x1", "made": 10**18}]),
     f"event 19: foul_with_free_throws needs made >= 1 and <= 3, got {10**18}"),
    (_basketball_doc([], names=("X", "X")), "roster: both teams are named 'X'"),
], ids=["made_overflows_int64", "made_sum_wraps_int64", "duplicate_team_names"])
def test_rank_rejects_unrankable_logs_exits_1(capsys, tmp_path, text, reason):
    path = tmp_path / "game.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "rank", str(path))
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == reason


@pytest.mark.parametrize("text, input_format", [
    ("[" * 200_000, "json"),
    ('{"events": ' + "[" * 200_000, "auto"),
], ids=["json", "auto"])
def test_rank_deeply_nested_json_exits_2(capsys, tmp_path, text, input_format):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "rank", str(path), "--input-format", input_format)
    assert code == 2 and out == ""
    assert "nested too deeply" in err


def test_rank_output_onto_directory_leaves_no_temp_file(capsys, tmp_path,
                                                        demo_playscript_path):
    target = tmp_path / "report.txt"
    target.mkdir()
    code, out, err = run(capsys, "rank", str(demo_playscript_path), "-o", str(target))
    assert code == 2 and out == "" and err
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]
    assert target.is_dir() and not any(target.iterdir())


def test_rank_output_into_a_missing_directory_names_the_target(capsys, tmp_path,
                                                                demo_playscript_path):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, "rank", str(demo_playscript_path), "-o", str(target))
    assert code == 2 and out == ""
    assert err == f"[Errno 2] No such file or directory: {str(target)!r}\n"


# --- matrix / validate --------------------------------------------------------

def test_matrix_adjacency(capsys, demo_playscript_path):
    code, out, _ = run(capsys, "matrix", str(demo_playscript_path))
    assert code == 0
    rows = [[int(x) for x in line.split()] for line in out.splitlines()[1:]]
    assert rows == DEMO_ADJACENCY


def test_matrix_column_stochastic(capsys, demo_json_path):
    code, out, _ = run(capsys, "matrix", str(demo_json_path),
                       "--form", "column-stochastic")
    assert code == 0
    assert out.splitlines()[1].split()[1] == "2/7"


def test_matrix_row_stochastic_goal_row(capsys, demo_playscript_path):
    code, out, _ = run(capsys, "matrix", str(demo_playscript_path),
                       "--form", "row-stochastic")
    assert code == 0
    assert out.splitlines()[-1].split() == [
        "4/13", "1/13", "1/13", "2/13", "1/13", "3/13", "1/13"]


@pytest.mark.parametrize("form", ["row-stochastic", "column-stochastic"])
def test_matrix_stochastic_dump_at_the_player_cap_is_quick(tmp_path, form):
    # the game of `synth --sport basketball --players 2000 --events 10000 --seed 1`
    log = generate_random_game(Sport.BASKETBALL, MAX_PLAYERS, 10_000, seed=1)
    path = tmp_path / "cap.json"
    path.write_text(render_gamelog(log), encoding="utf-8")
    out = tmp_path / "dump.txt"
    start = time.perf_counter()
    code = main(["matrix", str(path), "--form", form, "-o", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    with out.open(encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == MAX_PLAYERS + 2  # the header, then one line per node
    assert elapsed < 2.0  # 0.2-0.3 s on a 2-vCPU VM; building k^2 Fractions took 5.7 s or more


def test_synth_at_the_event_cap_is_quick(tmp_path):
    out = tmp_path / "cap.json"
    start = time.perf_counter()
    code = main(["synth", "--sport", "basketball", "--players", "24", "--events", "1000000",
                 "--seed", "1", "-o", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.read_text(encoding="utf-8").count('"type":') == 1_000_000
    # 2-3 s on a 2-vCPU VM; a dict per event through json.dumps(indent=2) took 9.6 s or more
    assert elapsed < 5.0


def test_validate_ok(capsys, demo_json_path):
    code, out, _ = run(capsys, "validate", str(demo_json_path))
    assert code == 0
    assert out.strip() == "ok"


def test_validate_reports_all_violations(capsys, invalid_json_game):
    code, out, _ = run(capsys, "validate", str(invalid_json_game))
    assert code == 1
    assert "event 0: pass endpoints on opposite teams" in out


def test_validate_empty_event_log(capsys, tmp_path):
    path = tmp_path / "empty.play"
    path.write_text("#team X a b\n#team Y c d\n", encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0


# --- batch --------------------------------------------------------------------

def test_batch_reports_and_summary(capsys, tmp_path, demo_playscript_path, demo_json_path):
    out_dir = tmp_path / "reports"
    code, _, err = run(capsys, "batch", str(demo_playscript_path),
                       str(demo_json_path), "--output-dir", str(out_dir))
    assert code == 0 and err == ""
    assert (out_dir / "three_on_three.report.txt").exists()
    assert (out_dir / "three_on_three+.report.txt").exists()  # same stem, kept apart
    summary = (out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert summary[0] == "game,wt_aipm,lt_aipm,wt_starter_aipm,lt_starter_aipm"
    rows = {line.split(",")[0]: line.split(",") for line in summary[1:]}
    # The playscript has no score metadata: winner/loser cells stay empty.
    assert rows["three_on_three"][1:3] == ["", ""]
    # The JSON twin carries a final score, so its cells are filled.
    assert rows["three_on_three+"][1:3] == ["58.61", "41.39"]


def test_batch_summary_with_winner(capsys, tmp_path, demo_json_path):
    out_dir = tmp_path / "reports"
    code, _, _ = run(capsys, "batch", str(demo_json_path),
                     "--output-dir", str(out_dir), "--format", "json")
    assert code == 0
    assert (out_dir / "three_on_three.report.json").exists()
    summary = (out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
    cells = summary[1].split(",")
    assert cells[1] == "58.61" and cells[2] == "41.39"
    assert cells[3] and cells[4]  # starter AIPMs present (A,B / D,E designated)


def test_batch_isolates_failures(capsys, tmp_path, demo_playscript_path, bad_playscript):
    out_dir = tmp_path / "reports"
    code, _, err = run(capsys, "batch", str(demo_playscript_path),
                       str(bad_playscript), "--output-dir", str(out_dir))
    assert code == 2
    assert "broken.play" in err
    assert (out_dir / "three_on_three.report.txt").exists()  # good file still ranked
    summary = (out_dir / "summary.csv").read_text(encoding="utf-8")
    assert "broken" not in summary


def test_batch_reports_non_utf8_file_and_goes_on(capsys, tmp_path, demo_playscript_path,
                                                non_utf8_game):
    out_dir = tmp_path / "reports"
    code, _, err = run(capsys, "batch", str(non_utf8_game), str(demo_playscript_path),
                       "--output-dir", str(out_dir))
    assert code == 2
    assert err.startswith(f"{non_utf8_game}: ") and "not UTF-8 text" in err
    assert (out_dir / "three_on_three.report.txt").exists()
    summary = (out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in summary[1:]] == ["three_on_three"]


def test_batch_matches_single_runs(capsys, tmp_path, demo_playscript_path):
    out_dir = tmp_path / "reports"
    run(capsys, "batch", str(demo_playscript_path), "--output-dir", str(out_dir))
    batch_text = (out_dir / "three_on_three.report.txt").read_text(encoding="utf-8")
    code, single_text, _ = run(capsys, "rank", str(demo_playscript_path))
    assert code == 0
    assert batch_text == single_text


# --- compare --------------------------------------------------------------------

def test_compare_same_game_twice(capsys, demo_playscript_path, demo_json_path):
    code, out, _ = run(capsys, "compare", str(demo_playscript_path), str(demo_json_path))
    assert code == 0
    header = out.splitlines()[0]
    assert header == "Player | three_on_three | three_on_three+ | Mean"
    top = out.splitlines()[1].split(" | ")
    assert top[0] == "C"
    assert top[1] == top[2] == top[3] == "64.66"


def test_compare_requires_two_games(capsys, demo_playscript_path):
    code, _, err = run(capsys, "compare", str(demo_playscript_path))
    assert code == 64
    assert "two games" in err


@pytest.mark.parametrize("command, formats", [
    ("rank", REPORT_FORMATS), ("batch", REPORT_FORMATS), ("compare", COMPARISON_FORMATS)])
def test_format_offers_the_renderers_tuple(command, formats):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert next(a for a in sub.choices[command]._actions if a.dest == "format").choices is formats


def test_compare_csv(capsys, tmp_path, demo_playscript_path):
    other = tmp_path / "other.play"
    other.write_text("#team Reds C X\n#team Blues Y Z\nC -> X -> C -> G\n",
                     encoding="utf-8")
    code, out, _ = run(capsys, "compare", str(demo_playscript_path), str(other),
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "player,three_on_three,other,mean"
    assert any(",," in line for line in out.splitlines()[1:])  # absent cells empty


def test_compare_csv_keeps_the_case_of_the_game_ids(capsys, tmp_path, demo_playscript_path):
    games = [tmp_path / "one" / "Game.play", tmp_path / "two" / "game.play"]
    for game in games:
        game.parent.mkdir()
        game.write_text(demo_playscript_path.read_text(encoding="utf-8"), encoding="utf-8")
    headers = []
    for fmt in COMPARISON_FORMATS:
        code, out, _ = run(capsys, "compare", *map(str, games), "--format", fmt)
        assert code == 0
        headers.append(out.splitlines()[0])
    assert headers == ["Player | Game | game | Mean", "player,Game,game,mean"]


# --- synth ----------------------------------------------------------------------

def test_synth_deterministic_and_valid(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run(capsys, "synth", "--sport", "hockey", "--players", "12",
                         "--events", "120", "--seed", "9", "-o", str(target))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    code, out, _ = run(capsys, "validate", str(a))
    assert code == 0


def test_synth_usage_errors(capsys):
    code, _, err = run(capsys, "synth", "--sport", "soccer", "--players", "1",
                       "--events", "5")
    assert code == 64 and "--players" in err
    code, _, err = run(capsys, "synth", "--sport", "soccer", "--players", "4",
                       "--events", "-1")
    assert code == 64 and "--events" in err
    code, out, err = run(capsys, "synth", "--sport", "soccer",
                         "--players", str(MAX_PLAYERS + 1), "--events", "5")
    assert code == 64 and f"--players must be <= {MAX_PLAYERS}" in err and out == ""


def test_synth_too_many_events_is_a_usage_error_at_once(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "synth", "--sport", "soccer", "--players", "4",
                         "--events", "1000000000000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 64 and out == "" and "--events" in err


def test_synth_negative_seed_plays_its_absolute_value(capsys):
    outs = []
    for seed in ("-1", "1"):
        code, out, _ = run(capsys, "synth", "--sport", "basketball", "--players", "6",
                           "--events", "40", "--seed", seed)
        assert code == 0
        outs.append(out.encode())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["rank", "validate", "matrix"])
def test_a_game_over_the_player_cap_exits_1_before_any_matrix(capsys, tmp_path, command):
    players = [{"id": f"p{i}"} for i in range(MAX_PLAYERS + 1)]
    doc = {"schema_version": "1", "sport": "hockey",
           "teams": [{"name": "X", "players": players[:1000]},
                     {"name": "Y", "players": players[1000:]}],
           "events": [{"type": "pass", "passer": "p0", "receiver": "p1"}]}
    path = tmp_path / "crowd.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    args = [command, str(path)] + (["--solver", "both"] if command == "rank" else [])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, *args)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    reason = f"roster: {MAX_PLAYERS + 1} players, over the cap of {MAX_PLAYERS}"
    assert reason in (out if command == "validate" else err)
    assert elapsed < 2.0
    # one (k x k) int64 or float64 matrix at this size alone would take 32 MB
    assert peak < 8 * 2**20


def test_a_file_over_the_input_cap_is_refused_unread(capsys, tmp_path, demo_playscript_path):
    path = tmp_path / "huge.json"
    path.touch()
    os.truncate(path, cli.MAX_INPUT_BYTES + 1)  # sparse: no disk blocks, nothing in memory
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "rank", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err == (f"{path}: {cli.MAX_INPUT_BYTES + 1} bytes, "
                   f"over the input cap of {cli.MAX_INPUT_BYTES} bytes\n")
    assert peak < 2**20
    out_dir = tmp_path / "reports"  # in a batch, only that file fails
    code, _, err = run(capsys, "batch", str(path), str(demo_playscript_path),
                       "--output-dir", str(out_dir))
    assert code == 2 and err.startswith(f"{path}: ") and err.count("\n") == 1
    assert (out_dir / "three_on_three.report.txt").exists()


# --- usage ----------------------------------------------------------------------

def test_usage_errors_exit_64(capsys):
    assert run(capsys, )[0] == 64
    assert run(capsys, "frobnicate")[0] == 64
    assert run(capsys, "batch", "--output-dir", "x")[0] == 64  # no inputs
    assert run(capsys, "rank")[0] == 64  # missing file


@pytest.mark.parametrize("argv", [
    ["validate", "{game}", "-o", "{out}"],
    ["batch", "{game}", "--output-dir", "{dir}", "-o", "{out}"],
    ["synth", "--sport", "soccer", "--players", "4", "--events", "3", "--input-format", "json"],
], ids=["validate -o", "batch -o", "synth --input-format"])
def test_an_option_the_command_does_not_read_exits_64(capsys, tmp_path, demo_json_path, argv):
    argv = [a.format(game=demo_json_path, out=tmp_path / "out.txt", dir=tmp_path / "reports")
            for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert "unrecognized arguments" in err
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_validate_and_batch_read_the_input_format(capsys, tmp_path, demo_json_path):
    assert run(capsys, "validate", str(demo_json_path), "--input-format", "json")[:2] == (0, "ok\n")
    code, _, err = run(capsys, "validate", str(demo_json_path), "--input-format", "playscript")
    assert code == 2 and err
    code, _, err = run(capsys, "batch", str(demo_json_path), "--input-format", "json",
                       "--output-dir", str(tmp_path))
    assert code == 0 and err == ""
    assert (tmp_path / "three_on_three.report.txt").exists()
    code, _, err = run(capsys, "batch", str(demo_json_path), "--input-format", "playscript",
                       "--output-dir", str(tmp_path))
    assert code == 2 and err.startswith(f"{demo_json_path}: ")


def test_bad_solver_options_exit_64(capsys, demo_playscript_path):
    code, _, err = run(capsys, "rank", str(demo_playscript_path), "--tol", "0")
    assert code == 64 and "--tol" in err
    code, _, err = run(capsys, "rank", str(demo_playscript_path), "--max-iters", "0")
    assert code == 64 and "--max-iters" in err


@pytest.mark.parametrize("tol", ["inf", "nan", "-inf"])
def test_non_finite_tol_exits_64(capsys, demo_playscript_path, tol):
    code, out, err = run(capsys, "rank", str(demo_playscript_path), f"--tol={tol}")
    assert code == 64 and out == ""
    assert "--tol must be positive and finite" in err


def test_exhausted_max_iters_falls_back_to_direct(capsys, demo_playscript_path):
    code, out, err = run(capsys, "rank", str(demo_playscript_path),
                         "--max-iters", "1")
    assert code == 0 and err == ""
    assert out == run(capsys, "rank", str(demo_playscript_path), "--solver", "direct")[1]


def test_singular_direct_solve_exits_3(capsys, monkeypatch, demo_playscript_path):
    def singular(t):
        raise SingularSystemError("direct solve failed: Singular matrix")

    monkeypatch.setattr("playrank.pipeline.stationary_direct", singular)
    code, _, err = run(capsys, "rank", str(demo_playscript_path), "--solver", "direct")
    assert code == 3
    assert "direct solve failed" in err


@pytest.fixture()
def crash_on_boom(monkeypatch):
    """analyze_game raises RuntimeError for logs with a player named 'boom'."""
    real = cli.analyze_game

    def analyze(log, **kwargs):
        if any(p.id == "boom" for team in log.teams for p in team.players):
            raise RuntimeError("simulated bug")
        return real(log, **kwargs)

    monkeypatch.setattr("playrank.cli.analyze_game", analyze)


def test_internal_error_exits_70(capsys, tmp_path, crash_on_boom, demo_playscript_path):
    buggy = tmp_path / "buggy.play"
    buggy.write_text("#team X boom b\n#team Y c d\nboom -> b -> G\n", encoding="utf-8")
    code, out, err = run(capsys, "rank", str(buggy))
    assert code == 70 and out == ""
    assert err == "internal error: RuntimeError: simulated bug\n"

    out_dir = tmp_path / "reports"
    code, _, err = run(capsys, "batch", str(buggy), str(demo_playscript_path),
                       "--output-dir", str(out_dir))
    assert code == 70
    assert err == f"{buggy}: internal error: RuntimeError: simulated bug\n"
    summary = (out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in summary[1:]] == ["three_on_three"]


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "rank", "--help")[0] == 0


class _FullDevice(io.RawIOBase):
    """A device that refuses every write with ENOSPC while ``full`` is set."""

    full = True

    def writable(self):
        return True

    def write(self, data):
        if self.full:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return len(data)


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["rank", "{play}"], ["rank", "{play}", "--format", "json"], ["matrix", "{play}"],
    ["validate", "{play}"], ["compare", "{play}", "{play}"],
    ["synth", "--sport", "soccer", "--players", "4", "--events", "3"],
    ["--help"], ["rank", "--help"],
], ids=lambda argv: " ".join(argv).replace("{play}", "demo"))
def test_a_failed_write_to_stdout_exits_2(capsys, monkeypatch, demo_playscript_path,
                                          argv, buffered):
    # buffered stdout fails at main()'s flush, unbuffered (python -u) at the write
    device = _FullDevice()
    stdout = io.TextIOWrapper(io.BufferedWriter(device) if buffered else device,
                              encoding="utf-8", write_through=not buffered)
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        code = main([arg.format(play=demo_playscript_path) for arg in argv])
    finally:
        device.full = False  # so that closing the stream can flush what it kept
        stdout.close()
    assert (code, capsys.readouterr().err) == (
        2, f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


# --- fuzz guard -------------------------------------------------------------

_SAMPLES = Path(__file__).resolve().parent.parent / "sample_games"
_DEMO_JSON = (_SAMPLES / "three_on_three.json").read_text(encoding="utf-8")
_DEMO_PLAY = (_SAMPLES / "three_on_three.play").read_text(encoding="utf-8")
# Replacement JSON values and playscript tokens that reach past the parsers'
# first checks (G:² once crashed the playscript parser).
_JSON_VALUES = [None, True, 0, -1, 4, 10**20, float("inf"), "", "A", "D", "Z",
                "pass", "score", "hockey", [], {}]
_PLAY_TOKENS = ["A", "D", "Z", "0", "->", "G", "G:3", "G:9", "G:²", "#team",
                "#starters", "#!", ""]
# An explicit alphabet keeps st.text cheap: the default one made this test
# take 3 s instead of 0.9 s on a checkout without a .hypothesis directory.
_CHARS = "AZaz09:#->{}[]\",.\t\x00 é²٣\u2028\ufeff"


@st.composite
def mutated_json(draw):
    """The demo JSON with 1-3 values, at random depths, replaced or deleted."""
    doc = json.loads(_DEMO_JSON)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            parent = node
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else range(len(node))))
            node = node[key]
        if parent is None:
            continue
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(st.sampled_from(_JSON_VALUES))
    return json.dumps(doc)


@st.composite
def mutated_playscript(draw):
    """The demo playscript with 1-4 whitespace-separated tokens replaced."""
    tokens = re.split(r"(\s+)", _DEMO_PLAY)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = 2 * draw(st.integers(min_value=0, max_value=len(tokens) // 2))
        tokens[i] = draw(st.sampled_from(_PLAY_TOKENS) | st.text(_CHARS, max_size=4))
    return "".join(tokens)


@settings(max_examples=100, deadline=None)
@given(text=mutated_json() | mutated_playscript())
def test_mutated_inputs_fail_only_with_documented_errors(tmp_path_factory, text):
    try:
        parse_game_text(text)
    except (SchemaError, PlayscriptError):
        pass
    path = tmp_path_factory.getbasetemp() / "fuzzed_game"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["rank", str(path)])
    assert code in (0, 1, 2, 3)
