"""Possession digraph, its Markov chain, and the stationary rank vector.

Construction
============
Nodes are the n players (team 1 in roster order, then team 2) plus a goal
node at index n.  The initial digraph has one arc in each direction between
every player and the goal plus a goal self-loop, so any two nodes are joined
by a walk of length exactly two.  T^2 is therefore entrywise positive for
every game graph: the chain is primitive and its stationary vector unique.
Events only ever add arcs, which cannot destroy those walks.

The transition matrix is row-stochastic, T[i][j] = arcs(i->j) / outdeg(i),
held exactly as Fractions (every row sums to exactly 1) with a float64
projection for the solvers.  The stationary vector v solves T^t v = v with
sum(v) = 1 and is computed two independent ways: power iteration on T^t and
a dense linear solve (LU with partial pivoting).  Each serves as an oracle
for the other.

Orientation note: dumps of the column-stochastic form are the transpose of
the internal row-stochastic matrix.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .model import GOAL, KIND_TABLE, GameLog, NodeRef, Record, Roster

POWER_TOL = 1e-12
POWER_MAX_ITERS = 1_000


class RankingError(Exception):
    """Base class for graph/solver failures."""


class CorruptedGraphError(RankingError):
    """The graph lacks what init_digraph guarantees (out-arcs, the goal hub)."""


class NonConvergenceError(RankingError):
    """Power iteration hit max_iters with the step change above tolerance."""


class SingularSystemError(RankingError):
    """The direct linear system broke down (non-primitive or corrupt matrix)."""


class PlayDigraph(Record, by_identity=True):
    """Directed multigraph as a dense nonnegative integer arc-count matrix.

    ``counts[i, j]`` is the number of arcs i -> j.  ``nodes`` fixes the
    index order: players, then GOAL last.
    """

    nodes: tuple[NodeRef, ...]
    counts: np.ndarray

    @property
    def n_players(self) -> int:
        return len(self.nodes) - 1

    def index_of(self, node: NodeRef) -> int:
        return self.nodes.index(node)


class TransitionMatrix(Record, by_identity=True):
    """Row-stochastic matrix of the chain induced by a PlayDigraph.

    ``rational`` rows sum to exactly 1; ``floats`` is the float64 projection
    used by the solvers.  Both are derived from the same integer counts.
    """

    nodes: tuple[NodeRef, ...]
    counts: np.ndarray
    row_sums: np.ndarray

    @cached_property
    def floats(self) -> np.ndarray:
        return self.counts / self.row_sums[:, None]

    @cached_property
    def rational(self) -> tuple[tuple[Fraction, ...], ...]:
        from fractions import Fraction  # imports decimal: only the exact dumps need it

        return tuple(
            tuple(Fraction(int(c), int(s)) for c in row)
            for row, s in zip(self.counts, self.row_sums)
        )

    @property
    def size(self) -> int:
        return len(self.nodes)


class RankVector(Record, by_identity=True):
    """Stationary distribution: player ranks plus the goal node's rank."""

    nodes: tuple[NodeRef, ...]
    values: np.ndarray
    residual: float
    method: str  # "power" or "direct"
    iterations: int = 0

    @property
    def player_ranks(self) -> np.ndarray:
        return self.values[:-1]

    @property
    def goal_rank(self) -> float:
        return float(self.values[-1])


def init_digraph(rosters: tuple[Roster, Roster]) -> PlayDigraph:
    """Pre-game digraph: player<->goal arcs both ways plus the goal self-loop."""
    nodes = tuple(p.id for roster in rosters for p in roster.players) + (GOAL,)
    n = len(nodes) - 1
    counts = np.zeros((n + 1, n + 1), dtype=np.int64)
    counts[:n, n] = 1  # player -> goal
    counts[n, :] = 1   # goal -> everyone, incl. itself
    return PlayDigraph(nodes, counts)


def apply_events(g: PlayDigraph, log: GameLog) -> PlayDigraph:
    """Add every event's arcs to a copy of ``g`` in one ``np.add.at``.

    ``g`` has the log's nodes (``init_digraph(log.teams)``), which the event
    columns index; events only add arcs, so the result dominates ``g`` in
    any event order.  Raises ValueError for an event type the sport lacks
    and KeyError for a player on neither roster (a validated log has neither).
    """
    arr = log.arrays
    legal, _, _, _, src_col, dst_col, by_field, constant = KIND_TABLE[log.sport][:, arr.kind]
    illegal = np.flatnonzero(legal == 0)
    if len(illegal):
        raise ValueError(f"event {illegal[0]} is not a {log.sport.value} event")
    n = g.n_players
    unknown = np.flatnonzero((arr.a >= n) | (arr.b >= n))
    if len(unknown):
        raise KeyError(f"event {unknown[0]} names a player that is not a node")
    ends = np.stack((arr.a, arr.b, np.full(len(arr.kind), n)))
    ends[ends < 0] = n  # no such role: the goal
    src, dst = (ends[col, np.arange(len(arr.kind))] for col in (src_col, dst_col))
    counts = g.counts.copy()
    np.add.at(counts.reshape(-1), src * (n + 1) + dst, np.where(by_field, arr.weight, constant))
    return PlayDigraph(g.nodes, counts)


def to_transition(g: PlayDigraph) -> TransitionMatrix:
    """Row-normalize arc counts into the chain's transition matrix."""
    row_sums = g.counts.sum(axis=1)
    if (row_sums == 0).any():
        bad = int(np.argmin(row_sums))
        raise CorruptedGraphError(
            f"node {g.nodes[bad]!r} has no outgoing arcs; graph was not initialized"
        )
    return TransitionMatrix(g.nodes, g.counts, row_sums)


def check_primitive(t: TransitionMatrix) -> int:
    """Certify that some power of T is entrywise positive, in O(k^2), and
    return the smallest such exponent, the witness.

    A hub -- a node whose row and column are both all-positive, as the goal
    node is in every graph from ``init_digraph`` -- joins any i and j by the
    walk i -> hub -> j, so the smallest all-positive exponent is 1 when T
    itself is positive and 2 otherwise.  A matrix without a hub did not come
    from ``init_digraph``: CorruptedGraphError.
    """
    pattern = t.counts > 0
    if not (pattern.all(axis=0) & pattern.all(axis=1)).any():
        raise CorruptedGraphError(
            "no node has an all-positive row and column; graph was not initialized")
    return 1 if pattern.all() else 2


def stationary_power(
    t: TransitionMatrix,
    tol: float = POWER_TOL,
    max_iters: int = POWER_MAX_ITERS,
) -> RankVector:
    """Stationary vector by power iteration on T^t from the uniform vector.

    Iterates v <- T^t v, renormalizing to sum 1, until the L1 step change
    drops to ``tol``.  Raises NonConvergenceError instead of returning a
    best-effort vector: after ``max_iters`` iterations, or earlier, once the
    step's decay over the last half of the run (every 32 iterations) puts
    ``tol`` beyond twice ``max_iters``.  The step never grows, since T is
    stochastic, and it shrinks about geometrically.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    tt = t.floats.T.copy()
    k = t.size
    v = np.full(k, 1.0 / k)
    steps = []
    for it in range(1, max_iters + 1):
        nxt = tt @ v
        nxt /= nxt.sum()
        step = float(np.abs(nxt - v).sum())
        v = nxt
        if step <= tol:
            residual = float(np.abs(tt @ v - v).max())
            return RankVector(t.nodes, v, residual, "power", it)
        steps.append(step)
        if it % 32 == 0:
            rate = math.log(step / steps[it // 2 - 1]) / (it - it // 2)  # log decay per iteration
            if rate >= 0 or it + math.log(tol / step) / rate > 2 * max_iters:
                raise NonConvergenceError(
                    f"power iteration would not reach tol={tol} in {max_iters} iterations "
                    f"(step {step:.1e} after {it}, shrinking {1 - math.exp(rate):.1e} "
                    f"per iteration)")
    raise NonConvergenceError(
        f"power iteration did not reach tol={tol} in {max_iters} iterations"
    )


def stationary_direct(t: TransitionMatrix) -> RankVector:
    """Stationary vector from the linear system (T^t - I) v = 0, sum(v) = 1.

    The redundant last equation is replaced by the normalization row and the
    system solved densely by LU with partial pivoting.  Independent of the
    power route, so the two can cross-check each other.
    """
    k = t.size
    a = t.floats.T.copy(order="K")  # F-ordered, as LAPACK takes it; no k x k identity
    a[np.diag_indices(k)] -= 1.0
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    try:
        v = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"direct solve failed: {exc}") from exc
    if not np.isfinite(v).all() or v.min() < -1e-9:
        raise SingularSystemError(
            "direct solve produced an invalid stationary vector "
            "(matrix is likely not primitive)"
        )
    v = np.clip(v, 0.0, None)
    v /= v.sum()
    residual = float(np.abs(t.floats.T @ v - v).max())
    return RankVector(t.nodes, v, residual, "direct")
