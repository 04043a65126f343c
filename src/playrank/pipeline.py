"""End-to-end helpers: text -> log -> digraph -> stationary vector -> report."""

from __future__ import annotations

from .metrics import IpmReport, TeamAggregate, aggregates, compute_ipm
from .model import GameLog, Record, Violation, validate_game
from .ranking import (
    POWER_MAX_ITERS, POWER_TOL, NonConvergenceError, PlayDigraph, RankVector,
    RankingError, _play_digraph, check_primitive, stationary_direct,
    stationary_power, to_transition,
)

SOLVERS = ("power", "direct", "both")
SOLVER_AGREEMENT_TOL = 1e-9


class SolverDisagreement(RankingError):
    """Power and direct solutions differ beyond the cross-check tolerance."""


class ValidationFailed(Exception):
    """Raised by build_digraph, and so by analyze_game, when the log has
    violations."""

    def __init__(self, violations: list[Violation]):
        super().__init__(f"{len(violations)} violation(s)")
        self.violations = violations


class GameAnalysis(Record, by_identity=True):
    """One ranked game, held as arc columns: nothing grows with the square of
    the node count.  ``transition`` is ``digraph`` itself, kept with the
    ``to_transition`` call while the benchmark harness reads them."""

    log: GameLog
    digraph: PlayDigraph
    transition: PlayDigraph
    rank: RankVector
    report: IpmReport
    teams: tuple[TeamAggregate, TeamAggregate]
    solver_gap: float | None  # max |power - direct|, only for solver="both"


def parse_game_text(text: str) -> GameLog:
    """Auto-detect the input format: JSON documents start with '{'.  Each
    parser is imported on first use, so a process loads only the one it reads."""
    if not isinstance(text, str):
        raise TypeError(f"parse_game_text needs a str, not {type(text).__name__}")
    if text.lstrip().startswith("{"):
        from .gamelog_json import parse_gamelog
        return parse_gamelog(text)
    from .playscript import parse_playscript
    return parse_playscript(text)


def build_digraph(log: GameLog) -> PlayDigraph:
    """The game's possession digraph, the only way a log becomes one: raises
    ValidationFailed with ``validate_game``'s whole list for a broken log."""
    if not isinstance(log, GameLog):
        raise TypeError(f"build_digraph needs a GameLog, not {type(log).__name__}")
    violations = validate_game(log)
    if violations:
        raise ValidationFailed(violations)
    return _play_digraph(log)


def solve_stationary(
    t: PlayDigraph,
    solver: str = "power",
    tol: float = POWER_TOL,
    max_iters: int = POWER_MAX_ITERS,
) -> tuple[RankVector, float | None]:
    """Run the requested solver(s); "both" cross-checks and reports the gap.

    A chain that power iteration does not settle within ``max_iters`` (a
    near-periodic one) gets the direct solve's vector and no gap instead.
    """
    if solver == "direct":
        return stationary_direct(t), None
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r} (use one of {SOLVERS})")
    try:
        power = stationary_power(t, tol, max_iters)
    except NonConvergenceError:
        return stationary_direct(t), None
    if solver == "power":
        return power, None
    direct = stationary_direct(t)
    gap = float(abs(power.values - direct.values).max())
    if gap > SOLVER_AGREEMENT_TOL:
        raise SolverDisagreement(
            f"solvers disagree by {gap:.3e} (> {SOLVER_AGREEMENT_TOL})")
    return power, gap


def analyze_game(
    log: GameLog,
    solver: str = "power",
    tol: float = POWER_TOL,
    max_iters: int = POWER_MAX_ITERS,
) -> GameAnalysis:
    """Validate and rank one game.

    Raises TypeError unless ``log`` is a GameLog, ValidationFailed when the
    log is broken and RankingError family exceptions on numerical trouble
    (never returns a best-effort result).
    """
    if not isinstance(log, GameLog):
        raise TypeError(f"analyze_game needs a GameLog, not {type(log).__name__}")
    digraph = build_digraph(log)  # raises ValidationFailed for a broken log
    transition = to_transition(digraph)
    check_primitive(transition)  # raises CorruptedGraphError without the goal hub
    rank, gap = solve_stationary(transition, solver, tol, max_iters)
    report = compute_ipm(rank, log.teams)
    return GameAnalysis(
        log=log, digraph=digraph, transition=transition, rank=rank,
        report=report, teams=aggregates(report, log.metadata), solver_gap=gap,
    )
