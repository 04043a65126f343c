"""Oracles for the tests: the general primitivity witness and the two
structural IPM bounds.

``primitivity_witness`` certifies primitivity through any hub and returns
the smallest all-positive power of T; the production ``check_primitive``
certifies only the goal hub that ``init_digraph`` builds.

Two bounds follow from the per-game player average of exactly 50 that
``metrics.compute_ipm`` pins:

* starter gap: with k starters summing to R, some starter/bench pair has a
  signed IPM difference IPM_starter - IPM_bench of at most
  n (R - 50 k) / (k (n - k)).  The signed form is what the averaging
  argument actually yields (the bound is negative when starters
  underperform, R < 50 k), and it holds for any designated subset.
* pairwise gap: with n >= 3 players, some pair of players sits within
  25 n / (n - 2) of each other.
"""

from typing import Iterable, NamedTuple

import numpy as np

from playrank.metrics import IpmReport
from playrank.ranking import CorruptedGraphError, PlayDigraph


def primitivity_witness(t: PlayDigraph) -> int:
    """Certify that some power of T is entrywise positive, in O(k^2), and
    return the smallest such exponent, the witness.

    A hub -- a node whose row and column are both all-positive, as the goal
    node is in every graph from ``init_digraph`` -- joins any i and j by the
    walk i -> hub -> j, so the smallest all-positive exponent is 1 when T
    itself is positive and 2 otherwise.  A matrix without a hub did not come
    from ``init_digraph``: CorruptedGraphError.
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
