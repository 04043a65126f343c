"""The process path.  ``python -m playrank.cli`` and the installed script end
through ``cli.run()``, which calls ``main()`` and then ``os._exit``, so the
interpreter's teardown never runs.  These tests check that nothing main()
writes is lost to that exit, and that its exit codes survive it."""

import ast
import errno
import json
import os
import subprocess
import sys

import pytest

from playrank.cli import main
from playrank.gamelog_json import render_gamelog
from playrank.model import Sport
from playrank.synth import generate_random_game

from conftest import REPO_ROOT

# The single line main() prints for each failed write to stdout.
NO_SPACE = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
BROKEN_PIPE = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"

AT_EXIT = """
import atexit
from playrank import cli
atexit.register(print, "atexit hook ran")
cli.run()
"""


def _spawn(*args, stdout=subprocess.PIPE, unbuffered=False):
    """A fresh interpreter's exit code, stdout bytes and stderr text."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    out = subprocess.run([sys.executable, *map(str, args)], stdout=stdout,
                         stderr=subprocess.PIPE, env=env, timeout=60)
    return out.returncode, out.stdout, out.stderr.decode()


def _cli(*args, **kwargs):
    return _spawn("-m", "playrank.cli", *args, **kwargs)


def _in_process(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err


@pytest.fixture(scope="module")
def games(tmp_path_factory, demo_playscript_path, demo_json_path):
    """Paths by name: a 350-player synth game, an invalid game and the demo."""
    root = tmp_path_factory.mktemp("process")
    wide = root / "wide.json"
    wide.write_text(render_gamelog(generate_random_game(Sport.BASKETBALL, 350, 2000, 3)),
                    encoding="utf-8")
    invalid = root / "invalid.json"  # a pass to the other team
    invalid.write_text(json.dumps({
        "schema_version": "1", "sport": "basketball",
        "teams": [{"name": "H", "players": [{"id": "h1"}, {"id": "h2"}]},
                  {"name": "A", "players": [{"id": "a1"}]}],
        "events": [{"type": "pass", "passer": "h1", "receiver": "a1"}]}), encoding="utf-8")
    return {"wide": wide, "invalid": invalid, "play": demo_playscript_path,
            "json": demo_json_path}


@pytest.mark.parametrize("argv, code", [
    (["rank", "{wide}", "--format", "table"], 0),
    (["rank", "{wide}", "--format", "csv"], 0),
    (["rank", "{wide}", "--format", "json"], 0),
    (["matrix", "{wide}"], 0),
    (["compare", "{play}", "{json}"], 0),
    (["validate", "{invalid}"], 1),
    (["rank", "{play}", "--solver", "nope"], 64),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_process_matches_main(capsys, games, argv, code):
    argv = [arg.format(**games) for arg in argv]
    expected = _in_process(capsys, *argv)
    assert expected[0] == code
    assert _cli(*argv) == expected


def test_process_output_exceeds_a_pipe_buffer(capsys, games):
    # so the hard exit would cut it short if any of it were still unwritten
    assert len(_in_process(capsys, "matrix", games["wide"])[1]) > 64 * 1024


def test_process_batch_writes_what_main_writes(capsys, tmp_path, games):
    argv = ["batch", games["wide"], games["play"], tmp_path / "missing.json", "--format", "json"]
    expected = _in_process(capsys, *argv, "--output-dir", tmp_path / "main")
    assert expected[0] == 2  # the missing file
    assert _cli(*argv, "--output-dir", tmp_path / "run") == expected
    written = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    assert sorted(written) == ["summary.csv", "three_on_three.report.json", "wide.report.json"]
    assert written == {p.name: p.read_bytes() for p in (tmp_path / "main").iterdir()}


def test_run_skips_atexit_hooks_and_keeps_the_code_of_main(capsys, games):
    expected = _in_process(capsys, "validate", games["invalid"])
    assert expected[0] == 1
    assert _spawn("-c", AT_EXIT, "validate", games["invalid"]) == expected


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_process_writing_to_a_full_device_exits_2(games, unbuffered):
    with open("/dev/full", "wb") as full:
        code, _, err = _cli("rank", games["play"], stdout=full, unbuffered=unbuffered)
    assert (code, err) == (2, NO_SPACE)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_process_writing_to_a_closed_pipe_exits_2(games, unbuffered):
    read, write = os.pipe()
    os.close(read)  # the reader has gone before the first byte
    try:
        code, _, err = _cli("rank", games["play"], stdout=write, unbuffered=unbuffered)
    finally:
        os.close(write)
    assert (code, err) == (2, BROKEN_PIPE)


def test_the_script_and_dash_m_both_end_through_run():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["scripts"] == {"playrank": "playrank.cli:run"}
    module = ast.parse((REPO_ROOT / "src" / "playrank" / "cli.py").read_text(encoding="utf-8"))
    blocks = [node.body for node in module.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [[ast.unparse(stmt) for stmt in body] for body in blocks] == [["run()"]]
