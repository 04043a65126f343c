"""The package's public surface: every callable in ``playrank.__all__``,
given wrong-typed arguments, raises a typed error and nothing else."""

from itertools import product

import playrank
from playrank import (
    DegenerateGoalRankError, RankingError, ValidationFailed, build_digraph, compare_games,
)
from playrank.model import ParseError

TYPED_ERRORS = (TypeError, ValueError, RankingError, ParseError, ValidationFailed,
                DegenerateGoalRankError)


def test_every_public_callable_refuses_wrong_types_with_a_typed_error(demo_log, demo_analysis):
    records = (demo_log, demo_log.teams[0], demo_log.metadata, build_digraph(demo_log),
               demo_analysis.rank, demo_analysis.report, demo_analysis.teams,
               compare_games({"demo": demo_analysis.report}))
    values = (None, 0, 3, -1, 1.5, "", "x", "{", [], [1], {}, {"a": 1}, b"x", (), *records)
    callables = [getattr(playrank, name) for name in playrank.__all__]
    untyped = {}  # callable name -> its first untyped failure
    for fn in filter(callable, callables):
        for args in [*product(values), *product(values, repeat=2)]:
            try:
                fn(*args)
            except TYPED_ERRORS:
                pass
            except Exception as exc:  # any other class is a finding, reported below
                untyped.setdefault(fn.__name__, f"{[type(a).__name__ for a in args]}: {exc!r}")
    assert untyped == {}
