"""playrank: possession-digraph PageRank ratings for game play-by-play logs.

Events become arcs of a directed multigraph over player nodes plus one goal
node, oriented so rank flows toward playmakers; the stationary vector of the
induced Markov chain is rescaled into the integrated playmaking metric (IPM),
whose per-game player average is always 50.
"""

from .gamelog_json import SchemaError, parse_gamelog, render_gamelog
from .metrics import (
    CrossGameRow, CrossGameTable, DegenerateGoalRankError, IpmReport,
    PlayerIpm, TeamAggregate, TeamAggregates, aggregates, compare_games,
    compute_ipm,
)
from .model import (
    GOAL, Event, GameLog, GameMetadata, NodeRef, Roster, RosterPlayer, Sport,
    Violation, validate_game,
)
from .pipeline import (
    GameAnalysis, SolverDisagreement, ValidationFailed, analyze_game,
    build_digraph, parse_game_text, solve_stationary,
)
from .playscript import PlayscriptError, parse_playscript
from .ranking import (
    CorruptedGraphError, NonConvergenceError, PlayDigraph, RankVector,
    RankingError, SingularSystemError, TransitionMatrix, apply_events,
    arc_columns, check_primitive, init_digraph, stationary_direct,
    stationary_power, to_transition,
)
from .render import render_comparison, render_matrix, render_report
from .synth import generate_random_game

__version__ = "0.1.0"

__all__ = [
    "CorruptedGraphError", "CrossGameRow", "CrossGameTable",
    "DegenerateGoalRankError", "Event", "GOAL", "GameAnalysis", "GameLog",
    "GameMetadata", "IpmReport", "NodeRef", "NonConvergenceError",
    "PlayDigraph", "PlayerIpm", "PlayscriptError", "RankVector",
    "RankingError", "Roster", "RosterPlayer", "SchemaError",
    "SingularSystemError", "SolverDisagreement", "Sport", "TeamAggregate",
    "TeamAggregates", "TransitionMatrix", "ValidationFailed", "Violation",
    "aggregates", "analyze_game", "apply_events", "arc_columns",
    "build_digraph", "check_primitive", "compare_games", "compute_ipm",
    "generate_random_game", "init_digraph",
    "parse_game_text", "parse_gamelog", "parse_playscript",
    "render_comparison", "render_gamelog", "render_matrix", "render_report",
    "solve_stationary", "stationary_direct", "stationary_power",
    "to_transition", "validate_game",
]
