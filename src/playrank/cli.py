"""playrank command line: rank, matrix, validate, batch, compare, synth.

Exit codes: 0 success, 1 validation failure, 2 parse/read failure or a
failed write, 3 numerical failure, 64 usage error, 70 internal error.
Results go to stdout (or --output), diagnostics to stderr; a diagnostic that
cannot be written changes no exit code.  ``main`` is the in-process API and
returns the code; ``run`` is the process entry point.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # no collection while the modules below load; run() freezes them
    gc.disable()

import argparse
import errno
import math
import os
import sys
from pathlib import Path
from typing import NoReturn

from .metrics import DegenerateGoalRankError, compare_games
from .model import MAX_PLAYERS, GameLog, ParseError, Sport, validate_game
from .pipeline import (
    SOLVERS, GameAnalysis, ValidationFailed, analyze_game, build_digraph,
    parse_game_text,
)
from .ranking import POWER_MAX_ITERS, POWER_TOL, RankingError
from .render import (COMPARISON_FORMATS, MATRIX_FORMS, REPORT_FORMATS, csv_text,
                     render_comparison, render_matrix, render_report)

# The parsers, the JSON writer and synth load inside the commands that run
# them, so a process compiles only the modules its command uses.

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64
EXIT_INTERNAL = 70  # EX_SOFTWARE: a bug, not a fault of the input

# A game file larger than this is refused before it is read.  The largest
# file synth writes (2,000 players, 1,000,000 events) is about 81 MiB.
MAX_INPUT_BYTES = 128 * 2**20


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad usage; we reserve 2 for
    parse failures, so usage problems exit 64 instead."""

    def error(self, message):
        # through _err: some argparse versions let a failed stderr write escape
        _err(f"{self.format_usage()}{self.prog}: error: {message}")
        self.exit(EXIT_USAGE)

    def print_help(self, file=None):
        # argparse drops an OSError from this write; here it is exit 2
        file = file or _stdout()
        file.write(self.format_help())
        file.flush()


def _stdout():
    """``sys.stdout``; a process started with stdout closed has None there,
    and writing to it is a failed write like any other."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, "stdout is closed")
    return sys.stdout


def _err(message: str) -> None:
    # a diagnostic that cannot be written keeps the exit code of what it reports
    if sys.stderr is not None:
        try:
            sys.stderr.write(f"{message}\n")
        except OSError:
            pass


def _report_exception(path: Path | None, exc: Exception) -> int:
    """Print ``exc`` to stderr and return its exit code."""
    # read failures (OSError) already name their file
    prefix = f"{path}: " if path is not None and not isinstance(exc, OSError) else ""
    if isinstance(exc, ValidationFailed):
        for v in exc.violations:
            _err(f"{prefix}{v}")
        return EXIT_VALIDATION
    if isinstance(exc, (ParseError, OSError)):
        code = EXIT_PARSE
    elif isinstance(exc, (RankingError, DegenerateGoalRankError)):
        code = EXIT_NUMERIC
    else:
        _err(f"{prefix}internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL
    _err(f"{prefix}{exc}")
    return code


def _load_log(path: Path, input_format: str) -> GameLog:
    if (size := path.stat().st_size) > MAX_INPUT_BYTES:
        raise OSError(f"{path}: {size} bytes, over the input cap of {MAX_INPUT_BYTES} bytes")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # a read failure, like a missing file
        raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    text = text.removeprefix("\ufeff")  # a byte-order mark; byte offsets above stay absolute
    if input_format == "json":
        from .gamelog_json import parse_gamelog
        return parse_gamelog(text)
    if input_format == "playscript":
        from .playscript import parse_playscript
        return parse_playscript(text)
    return parse_game_text(text)


def _analyze_file(path: Path, args) -> GameAnalysis:
    log = _load_log(path, args.input_format)
    return analyze_game(log, solver=args.solver, tol=args.tol,
                        max_iters=args.max_iters)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        _stdout().write(text)
    else:
        _atomic_write(Path(output), text)


def _atomic_write(target: Path, text: str) -> None:
    tmp = target.with_name(f".{target.name}.tmp{os.getpid()}")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, target)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is not None:  # the user's path, not tmp's
            raise OSError(exc.errno, exc.strerror, str(target)) from None
        raise


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_rank(args) -> int:
    analysis = _analyze_file(Path(args.game), args)
    _emit(render_report(analysis.report, analysis.teams, args.format,
                        solver_gap=analysis.solver_gap), args.output)
    return EXIT_OK


def _cmd_matrix(args) -> int:
    log = _load_log(Path(args.game), args.input_format)
    violations = validate_game(log)
    if violations:
        raise ValidationFailed(violations)
    _emit(render_matrix(build_digraph(log), args.form), args.output)
    return EXIT_OK


def _cmd_validate(args) -> int:
    log = _load_log(Path(args.game), args.input_format)
    violations = validate_game(log)
    _stdout().write("".join(f"{v}\n" for v in violations) or "ok\n")
    return EXIT_VALIDATION if violations else EXIT_OK


_REPORT_EXT = {"table": "txt", "csv": "csv", "json": "json"}


def _stems(names: list[str]) -> list[str]:
    """Each file's stem, with "+" appended to a repeated one until it is new."""
    stems: dict[str, None] = {}
    for name in names:
        stem = Path(name).stem
        while stem in stems:
            stem += "+"
        stems[stem] = None
    return list(stems)


def _cmd_batch(args) -> int:
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = [["game", "wt_aipm", "lt_aipm", "wt_starter_aipm", "lt_starter_aipm"]]
    worst = EXIT_OK
    for name, stem in zip(args.games, _stems(args.games)):
        path = Path(name)
        try:
            analysis = _analyze_file(path, args)
        except Exception as exc:  # isolate per-file failures
            worst = max(worst, _report_exception(path, exc))
            continue
        report_path = out_dir / f"{stem}.report.{_REPORT_EXT[args.format]}"
        _atomic_write(report_path, render_report(
            analysis.report, analysis.teams, args.format,
            solver_gap=analysis.solver_gap))

        winner = next((t for t in analysis.teams if t.label == "winner"), None)
        loser = next((t for t in analysis.teams if t.label == "loser"), None)
        summary.append([stem] + [
            "" if t is None or getattr(t, f) is None else f"{getattr(t, f):.2f}"
            for f in ("aipm", "starter_aipm") for t in (winner, loser)])
    _atomic_write(out_dir / "summary.csv", csv_text(summary))
    return worst


def _cmd_compare(args) -> int:
    reports = {stem: _analyze_file(Path(name), args).report
               for name, stem in zip(args.games, _stems(args.games))}
    _emit(render_comparison(compare_games(reports), args.format), args.output)
    return EXIT_OK


def _cmd_synth(args) -> int:
    from .gamelog_json import render_gamelog
    from .synth import generate_random_game
    log = generate_random_game(Sport(args.sport), args.players, args.events,
                               args.seed)
    _emit(render_gamelog(log), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="playrank",
                     description="Possession-digraph PageRank player ratings.")
    sub = parser.add_subparsers(dest="command", required=True)

    in_opts = argparse.ArgumentParser(add_help=False)
    in_opts.add_argument("--input-format", choices=("auto", "json", "playscript"),
                         default="auto",
                         help="input format (default: auto-detect, '{' means JSON)")
    out_opts = argparse.ArgumentParser(add_help=False)
    out_opts.add_argument("-o", "--output", default=None,
                          help="write result to this file instead of stdout")

    solver_opts = argparse.ArgumentParser(add_help=False)
    solver_opts.add_argument("--solver", choices=SOLVERS, default="power")
    solver_opts.add_argument("--tol", type=float, default=POWER_TOL,
                             help="power-iteration L1 step tolerance")
    solver_opts.add_argument("--max-iters", type=int, default=POWER_MAX_ITERS,
                             help="power iterations before the direct solve takes over")

    p = sub.add_parser("rank", parents=[in_opts, out_opts, solver_opts],
                       help="rank one game's players by IPM")
    p.add_argument("game")
    p.add_argument("--format", choices=REPORT_FORMATS, default="table")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("matrix", parents=[in_opts, out_opts],
                       help="dump a game's digraph or transition matrix")
    p.add_argument("game")
    p.add_argument("--form", choices=MATRIX_FORMS, default="adjacency")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("validate", parents=[in_opts],
                       help="check a game log against every invariant")
    p.add_argument("game")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("batch", parents=[in_opts, solver_opts],
                       help="rank many games; write reports plus a summary CSV")
    p.add_argument("games", nargs="+")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--format", choices=REPORT_FORMATS, default="table")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("compare", parents=[in_opts, out_opts, solver_opts],
                       help="compare player IPMs across games")
    p.add_argument("games", nargs="+")
    p.add_argument("--format", choices=COMPARISON_FORMATS, default="table")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("synth", parents=[out_opts],
                       help="generate a random-but-valid game log (JSON)")
    p.add_argument("--sport", choices=[s.value for s in Sport], required=True)
    p.add_argument("--players", type=int, required=True)
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except OSError as exc:  # --help could not be written
        return _report_exception(None, exc)

    for bad, message in (
        (args.command == "compare" and len(args.games) < 2, "need at least two games"),
        (args.command == "synth" and args.players < 2, "--players must be >= 2"),
        (args.command == "synth" and args.players > MAX_PLAYERS,
         f"--players must be <= {MAX_PLAYERS}"),
        (args.command == "synth" and args.events < 0, "--events must be >= 0"),
        (args.command == "synth" and args.events > 1_000_000, "--events must be <= 1000000"),
        (not 0 < getattr(args, "tol", 1.0) < math.inf, "--tol must be positive and finite"),
        (getattr(args, "max_iters", 1) < 1, "--max-iters must be >= 1"),
    ):
        if bad:
            _err(f"{parser.prog} {args.command}: error: {message}")
            return EXIT_USAGE

    try:
        code = args.func(args)
        if sys.stdout is not None:  # a full or closed stdout fails here, as exit 2
            sys.stdout.flush()
        return code
    except Exception as exc:
        return _report_exception(None, exc)


def run() -> NoReturn:
    """The ``playrank`` process: ``main()``, then ``os._exit`` with its code.

    That skips the interpreter's teardown of numpy and every loaded module,
    whose memory the OS reclaims anyway, and every atexit hook.  main() has
    flushed stdout or reported the write that failed, so a flush that fails
    here only retries those bytes.

    What the imports made lives until that exit, so it is frozen out of the
    cyclic collector before main(), and the collector, off while
    ``python -m`` loaded the modules, is on for the command's own garbage.
    """
    gc.freeze()
    gc.enable()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError):  # closed, or failed and reported
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
