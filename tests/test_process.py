"""The process path.  ``python -m playrank.cli`` and the installed script end
through ``cli.run()``, which calls ``main()`` and then ``os._exit``, so the
interpreter's teardown never runs.  These tests check that nothing main()
writes is lost to that exit, that its exit codes survive it, that a stream
which cannot be written changes no code but a failed write's, and that the
cyclic collector is off while ``-m`` loads the modules and on for the
command."""

import ast
import errno
import gc
import json
import os
import subprocess
import sys

import pytest

from playrank import cli
from playrank.cli import main
from playrank.gamelog_json import render_gamelog
from playrank.model import Sport
from playrank.synth import generate_random_game

from conftest import REPO_ROOT

# The single line main() prints for each failed write to stdout.
NO_SPACE = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
BROKEN_PIPE = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"
STDOUT_CLOSED = f"[Errno {errno.EBADF}] stdout is closed\n"

AT_EXIT = """
import atexit
from playrank import cli
atexit.register(print, "atexit hook ran")
cli.run()
"""


# A sitecustomize that logs each collection as it starts: its generation,
# whether cli.py runs as __main__ and has bound gc (the statement before
# gc.disable()), and how many objects are frozen.  os.write, because run()
# ends with os._exit.
GC_PROBE = """
import gc, os, sys
_log = os.open({log!r}, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

def _probe(phase, info):
    if phase == "start":
        main = sys.modules["__main__"]
        began = getattr(main.__spec__, "name", None) == "playrank.cli" and "gc" in vars(main)
        line = f"{{info['generation']}} {{int(began)}} {{gc.get_freeze_count()}}"
        os.write(_log, (line + "\\n").encode())

gc.callbacks.append(_probe)
"""


def _close(fd):
    """A ``preexec_fn`` that starts the child with ``fd`` closed, as ``>&-``."""
    return lambda: os.close(fd)


def _spawn(*args, unbuffered=False, path=(), **popen):
    """A fresh interpreter's exit code, stdout bytes and stderr text (None
    where a stream is not piped)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        *map(str, path), str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    popen = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **popen}
    out = subprocess.run([sys.executable, *map(str, args)], env=env, timeout=60, **popen)
    return out.returncode, out.stdout, None if out.stderr is None else out.stderr.decode()


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("game, code", [("missing", 2), ("invalid", 1)])
def test_a_full_stderr_keeps_the_exit_code(tmp_path, games, unbuffered, game, code):
    path = games.get(game, tmp_path / "missing.json")
    with open("/dev/full", "wb") as full:
        assert _cli("rank", path, stderr=full, unbuffered=unbuffered)[0] == code


@pytest.mark.parametrize("argv", [
    ["rank", "{missing}"],
    ["batch", "{missing}", "{play}", "--output-dir", "{out}"],
], ids=lambda v: v[0])
def test_a_closed_stderr_changes_neither_code_nor_stdout(tmp_path, games, argv):
    names = dict(games, missing=tmp_path / "missing.json", out=tmp_path / "out")
    argv = [arg.format(**names) for arg in argv]
    assert _cli(*argv, stderr=None, preexec_fn=_close(2)) == (2, b"", None)


@pytest.mark.parametrize("argv", [
    ["rank", "{play}"],
    ["matrix", "{play}"],
    ["compare", "{play}", "{json}"],
    ["synth", "--sport", "hockey", "--players", "4", "--events", "3"],
    ["validate", "{play}"],
    ["--help"],
], ids=lambda v: v[0])
def test_a_closed_stdout_is_a_failed_write(games, argv):
    argv = [arg.format(**games) for arg in argv]
    assert _cli(*argv, stdout=None, preexec_fn=_close(1)) == (2, None, STDOUT_CLOSED)


def test_a_closed_stdout_leaves_file_output_alone(capsys, tmp_path, games):
    out = tmp_path / "report.txt"
    code, _, err = _cli("rank", games["play"], "-o", out, stdout=None, preexec_fn=_close(1))
    assert (code, err) == (0, "")
    assert out.read_bytes() == _in_process(capsys, "rank", games["play"])[1]


def test_importing_the_cli_leaves_the_collector_alone():
    script = "import gc, playrank.cli; print(gc.isenabled(), gc.get_freeze_count())"
    assert _spawn("-c", script) == (0, b"True 0\n", "")


def test_main_leaves_the_collector_alone_and_run_freezes_the_imports(
        capsys, monkeypatch, demo_playscript_path):
    monkeypatch.setattr(sys, "argv", ["playrank", "validate", str(demo_playscript_path)])
    codes = []
    monkeypatch.setattr(os, "_exit", codes.append)
    frozen = gc.get_freeze_count()
    gc.disable()  # as python -m playrank.cli leaves it
    try:
        assert main(sys.argv[1:]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (False, frozen)
        cli.run()
        assert codes == [0]
        assert gc.isenabled()
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
        gc.enable()
    assert capsys.readouterr().out == "ok\nok\n"


def test_dash_m_collects_nothing_while_its_modules_load(tmp_path, games):
    log = tmp_path / "collections.txt"
    (tmp_path / "sitecustomize.py").write_text(GC_PROBE.format(log=str(log)), encoding="utf-8")
    code, report, _ = _cli("rank", games["wide"], path=[tmp_path])
    assert code == 0 and report
    starts = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    # Compiling cli.py or importing gc may start one; none starts from
    # gc.disable() until run() freezes the imports, and the command's own
    # allocations start some after that.
    assert not [gen for gen, began, frozen in starts if began == "1" and frozen == "0"]
    assert [gen for gen, began, frozen in starts if frozen != "0"]


def test_the_script_and_dash_m_both_end_through_run():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["scripts"] == {"playrank": "playrank.cli:run"}
    module = ast.parse((REPO_ROOT / "src" / "playrank" / "cli.py").read_text(encoding="utf-8"))
    blocks = [(i, [ast.unparse(stmt) for stmt in node.body])
              for i, node in enumerate(module.body) if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [body for _, body in blocks] == [["gc.disable()"], ["run()"]]
    # the collector goes off before any import but gc's, and run() is last
    imports = [ast.unparse(node) for node in module.body[:blocks[0][0]]
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == ["from __future__ import annotations", "import gc"]
    assert blocks[1][0] == len(module.body) - 1
