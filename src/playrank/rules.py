"""Arc rules: what each event adds to the possession digraph.

Each sport's rule for an event type is the arc template in its row of
``model.EVENT_SPECS``: ``(src role or GOAL, dst role, weight field or 1)``,
or None for a dead ball, which adds nothing.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .model import GOAL, SPEC_BY_CLASS, SPORT_EVENTS, Event, NodeRef, Sport


class Arc(NamedTuple):
    src: NodeRef
    dst: NodeRef
    count: int = 1


ArcDelta = tuple[Arc, ...]

def fold_arcs(sport: Sport, events: Iterable[Event]) -> dict[tuple[NodeRef, NodeRef], int]:
    """Total arc count per (src, dst) pair that ``events`` add in ``sport``.

    Raises ValueError for an event type that is not legal in ``sport``
    (defensive; validated logs never hit this).
    """
    arcs = {cls: spec.sports[sport][0] for cls, spec in SPORT_EVENTS[sport].items()}
    tally: dict[tuple[NodeRef, NodeRef], int] = {}
    for ev in events:
        try:
            arc = arcs[type(ev)]
        except KeyError:
            spec = SPEC_BY_CLASS.get(type(ev))
            name = type(ev).__name__ if spec is None else spec.name
            raise ValueError(f"{name} is not a {sport.value} event") from None
        if arc is None:
            continue
        src, dst, weight = arc
        key = (src if src is GOAL else getattr(ev, src), getattr(ev, dst))
        tally[key] = tally.get(key, 0) + (
            getattr(ev, weight) if isinstance(weight, str) else weight)
    return tally


def arcs_for_event(sport: Sport, event: Event) -> ArcDelta:
    """Arcs the event adds to the digraph; empty tuple for dead-ball events.

    Raises ValueError for an event type that is not legal in ``sport``.
    """
    return tuple(Arc(src, dst, k) for (src, dst), k in fold_arcs(sport, (event,)).items())
