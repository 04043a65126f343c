"""End-to-end helpers: text -> log -> digraph -> stationary vector -> report."""

from __future__ import annotations

from .gamelog_json import parse_gamelog
from .metrics import IpmReport, TeamAggregate, aggregates, compute_ipm
from .model import GameLog, Record, Violation, validate_game
from .playscript import parse_playscript
from .ranking import (
    POWER_MAX_ITERS, POWER_TOL, NonConvergenceError, PlayDigraph, RankVector,
    RankingError, apply_events, check_primitive, init_digraph,
    stationary_direct, stationary_power, to_transition,
)

SOLVERS = ("power", "direct", "both")
SOLVER_AGREEMENT_TOL = 1e-9


class SolverDisagreement(RankingError):
    """Power and direct solutions differ beyond the cross-check tolerance."""


class ValidationFailed(Exception):
    """Raised by analyze_game when the log has violations."""

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
    """Auto-detect the input format: JSON documents start with '{'."""
    if text.lstrip().startswith("{"):
        return parse_gamelog(text)
    return parse_playscript(text)


def build_digraph(log: GameLog) -> PlayDigraph:
    return apply_events(init_digraph(log.teams), log)


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

    Raises ValidationFailed when the log is broken and RankingError family
    exceptions on numerical trouble (never returns a best-effort result).
    """
    violations = validate_game(log)
    if violations:
        raise ValidationFailed(violations)
    digraph = build_digraph(log)
    transition = to_transition(digraph)
    check_primitive(transition)  # raises CorruptedGraphError without the goal hub
    rank, gap = solve_stationary(transition, solver, tol, max_iters)
    report = compute_ipm(rank, log.teams)
    return GameAnalysis(
        log=log, digraph=digraph, transition=transition, rank=rank,
        report=report, teams=aggregates(report, log.metadata), solver_gap=gap,
    )
