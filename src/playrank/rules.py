"""Arc rules: what each event adds to the possession digraph.

Each sport's rule for an event type is the arc template in its row of
``model.EVENT_SPECS``: ``(src role or GOAL, dst role, weight field or 1)``,
or None for a dead ball, which adds nothing.  ``ARC_COLUMNS`` holds the same
templates per kind for the columnar digraph build.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import EVENT_SPECS, GOAL, SPEC_BY_CLASS, Event, NodeRef, Sport


class Arc(NamedTuple):
    src: NodeRef
    dst: NodeRef
    count: int = 1


ArcDelta = tuple[Arc, ...]


def arcs_for_event(sport: Sport, event: Event) -> ArcDelta:
    """Arcs the event adds to the digraph; empty tuple for dead-ball events.

    Raises ValueError for an event type that is not legal in ``sport``.
    """
    spec = SPEC_BY_CLASS.get(type(event))
    if spec is None or sport not in spec.sports:
        name = type(event).__name__ if spec is None else spec.name
        raise ValueError(f"{name} is not a {sport.value} event")
    arc = spec.sports[sport][0]
    if arc is None:
        return ()
    src, dst, weight = arc
    return (Arc(src if src is GOAL else getattr(event, src), getattr(event, dst),
                getattr(event, weight) if isinstance(weight, str) else weight),)


def _arc_columns(sport: Sport) -> np.ndarray:
    """Rows src, dst, by_field, constant; a column per kind (EVENT_SPECS rows,
    then the unknown kind).  src and dst are 0 (first role), 1 (second) or 2
    (goal); the weight is the integer field where by_field, else constant."""
    out = []
    for spec in EVENT_SPECS:
        arc = spec.sports.get(sport, (None,))[0]
        if arc is None:
            out.append((2, 2, 0, 0))
        else:
            src, dst, weight = arc
            out.append((2 if src is GOAL else spec.roles.index(src), spec.roles.index(dst),
                        *((1, 0) if isinstance(weight, str) else (0, weight))))
    return np.array(out + [(2, 2, 0, 0)]).T


ARC_COLUMNS: dict[Sport, np.ndarray] = {sport: _arc_columns(sport) for sport in Sport}
