"""playrank: possession-digraph PageRank ratings for game play-by-play logs.

Events become arcs of a directed multigraph over player nodes plus one goal
node, oriented so rank flows toward playmakers; the stationary vector of the
induced Markov chain is rescaled into the integrated playmaking metric (IPM),
whose per-game player average is always 50.

Importing the package loads none of its modules: each public name, and each
submodule (``playrank.render``), loads its module on first access, so a
process compiles only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Each module and the public names it defines.
_EXPORTS = {
    "gamelog_json": ("SchemaError", "parse_gamelog", "render_gamelog"),
    "metrics": (
        "CrossGameRow", "CrossGameTable", "DegenerateGoalRankError", "IpmReport",
        "PlayerIpm", "TeamAggregate", "aggregates", "compare_games",
    ),
    "model": (
        "GOAL", "Event", "GameLog", "GameMetadata", "NodeRef", "Roster", "RosterPlayer",
        "Sport", "Violation", "validate_game",
    ),
    "pipeline": (
        "GameAnalysis", "SolverDisagreement", "ValidationFailed", "analyze_game",
        "build_digraph", "parse_game_text",
    ),
    "playscript": ("PlayscriptError", "parse_playscript"),
    "ranking": (
        "CorruptedGraphError", "NonConvergenceError", "PlayDigraph", "RankVector",
        "RankingError", "SingularSystemError",
    ),
    "render": ("render_comparison", "render_matrix", "render_report"),
    "synth": ("generate_random_game",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(("cli", *_EXPORTS))

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Load the module that ``name`` is, or that defines it (PEP 562)."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # also binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
