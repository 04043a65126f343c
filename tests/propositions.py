"""Oracles for the tests: T as exact Fractions, the general primitivity
witness, the two structural IPM bounds and the game log as the stdlib JSON
encoder writes it.

``exact_rows`` is T row by row as Fractions, the arc counts over the
out-degrees; the exact matrix dumps are checked against it.

``primitivity_witness`` certifies primitivity through any hub and returns
the smallest all-positive power of T; the production ``check_primitive``
certifies only the goal hub that ``build_digraph`` builds.

Two bounds follow from the per-game player average of exactly 50 that
``metrics.compute_ipm`` pins:

* starter gap: with k starters summing to R, some starter/bench pair has a
  signed IPM difference IPM_starter - IPM_bench of at most
  n (R - 50 k) / (k (n - k)).  The signed form is what the averaging
  argument actually yields (the bound is negative when starters
  underperform, R < 50 k), and it holds for any designated subset.
* pairwise gap: with n >= 3 players, some pair of players sits within
  25 n / (n - 2) of each other.

``refined_stationary`` is the stationary vector of any chain, refined
with residuals summed in extended precision, the oracle for chains too
large for exact Fractions.

``render_gamelog_reference`` builds a dict per event object and runs
``json.dumps(indent=2)`` over the document; the production
``render_gamelog`` writes the events from their columns.
"""

import json
from fractions import Fraction
from typing import Any, Iterable, NamedTuple

import numpy as np

from playrank.gamelog_json import SCHEMA_VERSION
from playrank.metrics import IpmReport
from playrank.model import EVENT_SPECS, KIND_OF, Event, GameLog, Sport
from playrank.ranking import CorruptedGraphError, PlayDigraph


def exact_rows(g: PlayDigraph) -> tuple[tuple[Fraction, ...], ...]:
    """T as exact Fractions, row by row: ``counts`` over ``row_sums``."""
    return tuple(tuple(Fraction(c, s) for c in row)
                 for row, s in zip(g.counts.tolist(), g.row_sums.tolist()))


def primitivity_witness(t: PlayDigraph) -> int:
    """Certify that some power of T is entrywise positive, in O(k^2), and
    return the smallest such exponent, the witness.

    A hub -- a node whose row and column are both all-positive, as the goal
    node is in every graph from ``build_digraph`` -- joins any i and j by the
    walk i -> hub -> j, so the smallest all-positive exponent is 1 when T
    itself is positive and 2 otherwise.  A matrix without a hub did not come
    from ``build_digraph``: CorruptedGraphError.
    """
    k = len(t.nodes)
    pattern = np.zeros((k, k), dtype=bool)  # where the arcs run; their weights are positive
    pattern.reshape(-1)[t.src * k + t.dst] = True
    if not pattern[:, pattern.all(axis=1)].all(axis=0).any():  # a full row with a full column
        raise CorruptedGraphError(
            "no node has an all-positive row and column; graph was not initialized")
    return 1 if pattern.all() else 2


class PropositionCheck(NamedTuple):
    applicable: bool
    bound: float | None = None
    observed: float | None = None
    margin: float | None = None  # bound - observed; nonnegative when it holds

    @property
    def holds(self) -> bool | None:
        if not self.applicable:
            return None
        return self.margin >= -1e-9


class BoundsCheck(NamedTuple):
    starter_gap: PropositionCheck   # needs 1 <= k <= n-1 designated starters
    pairwise_gap: PropositionCheck  # needs n >= 3


def check_proposition_bounds(
    report: IpmReport,
    starters: Iterable[str] | None = None,
) -> BoundsCheck:
    """Evaluate the starter-gap and pairwise-gap bounds on a report.

    ``starters`` overrides the roster's starter flags; the starter-gap bound
    is valid for any subset of 1 <= k <= n-1 players.  A check whose
    precondition fails comes back with applicable=False rather than raising,
    since the two bounds have independent preconditions.
    """
    ipm_by_id = {p.player: p.ipm for p in report.players}
    if starters is None:
        starter_set = {p.player for p in report.players if p.starter}
    else:
        starter_set = set(starters)
        unknown = starter_set - ipm_by_id.keys()
        if unknown:
            raise KeyError(f"unknown starter ids: {sorted(unknown)}")
    n = report.n
    k = len(starter_set)

    if 1 <= k <= n - 1:
        starter_ipms = [p.ipm for p in report.players if p.player in starter_set]
        bench_ipms = [p.ipm for p in report.players if p.player not in starter_set]
        r_total = sum(starter_ipms)
        bound = n * (r_total - 50.0 * k) / (k * (n - k))
        observed = min(starter_ipms) - max(bench_ipms)  # min over pairs of s - b
        starter_gap = PropositionCheck(True, bound, observed, bound - observed)
    else:
        starter_gap = PropositionCheck(False)

    if n >= 3:
        bound = 25.0 * n / (n - 2)
        ipms = sorted(p.ipm for p in report.players)
        observed = min(b - a for a, b in zip(ipms, ipms[1:]))
        pairwise_gap = PropositionCheck(True, bound, observed, bound - observed)
    else:
        pairwise_gap = PropositionCheck(False)

    return BoundsCheck(starter_gap=starter_gap, pairwise_gap=pairwise_gap)


def refined_stationary(t: PlayDigraph, steps: int = 4) -> np.ndarray:
    """The stationary vector of ``t`` as long doubles: the dense float64 LU
    solve of (T^t - I) v = 0 with sum(v) = 1, refined ``steps`` times with
    the residual of T's long double entries (the exact count ratios, 64-bit
    mantissa on x86) and a float64 correction.  Each step shrinks the error
    by about the system's condition number times 2^-53, so it ends near
    long double precision where numpy's long double is wider than float64
    and at float64 precision where it is not."""
    k = len(t.nodes)
    counts = np.zeros((k, k), np.longdouble)
    np.add.at(counts, (t.src, t.dst), t.weight.astype(np.longdouble))
    a = (counts / counts.sum(axis=1)[:, None]).T - np.eye(k, dtype=np.longdouble)
    a[-1] = 1
    b = np.zeros(k, np.longdouble)
    b[-1] = 1
    start = a.astype(np.float64)
    v = np.zeros(k, np.longdouble)
    for _ in range(steps):
        v += np.linalg.solve(start, (b - a @ v).astype(np.float64))
    return v


def _event_to_obj(ev: Event, sport: Sport) -> dict:
    spec = EVENT_SPECS[KIND_OF[type(ev)]]
    carried = spec.wire_ints(sport)
    for f in spec.ints:
        if f not in carried and getattr(ev, f) != 1:
            raise ValueError(f"cannot encode a {sport.value} {spec.name} worth "
                             f"{getattr(ev, f)}; validate the log first")
    return {"type": spec.name, **{f: getattr(ev, f) for f in spec.roles + carried}}


def render_gamelog_reference(log: GameLog) -> str:
    """The game log document as ``json.dumps(indent=2)`` writes it from one
    dict per event object."""
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "sport": log.sport.value,
        "teams": [{"name": t.name, "players": [p._asdict() for p in t.players]}
                  for t in log.teams],
    }
    meta = {k: v for k, v in log.metadata._asdict().items() if v is not None}
    if meta:
        doc["metadata"] = meta
    doc["events"] = [_event_to_obj(e, log.sport) for e in log.events]
    return json.dumps(doc, indent=2) + "\n"
