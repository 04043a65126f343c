"""Possession digraph, its Markov chain, and the stationary rank vector.

Construction
============
Nodes are the n players (team 1 in roster order, then team 2) plus a goal
node at index n.  The initial digraph has an arc each way between every
player and the goal and a goal self-loop, so a walk of length two joins any
two nodes; events only add arcs.  T^2 is therefore entrywise positive for
every game graph, so the chain is primitive and its stationary vector unique;
``check_primitive`` certifies this from the goal's arcs alone, in O(k + arcs).

The digraph is its arcs, held as columns: arc i runs src[i] -> dst[i] with
multiplicity weight[i], the 2n + 1 initial arcs first and then one per event
that adds one (``arc_columns``).  Building it costs O(n + events), not
O(k^2) for k = n + 1 nodes.  The dense int64 arc-count matrix ``counts`` is
built only when asked for (matrix dumps, the exact ``rational`` rows, tests).

The digraph is its own transition matrix, T[i][j] = arcs(i->j) / outdeg(i),
row-stochastic, with the out-degrees (``row_sums``) summed from the arcs.
It is held exactly as Fractions on request (every row sums to exactly 1),
and ``floats`` is its float64 projection.  The stationary vector v solves
T^t v = v with sum(v) = 1 and is computed two independent ways: power
iteration on T^t and a dense linear solve (LU with partial pivoting).  Each
serves as an oracle for the other.  Power iteration steps on the arcs (one
weighted bincount per step, O(arcs)), never on a k x k matrix; the solve
scatters the arcs into a k x k float64 T and drops it on return, so nothing
k x k outlives a solve.

Orientation note: dumps of the column-stochastic form are the transpose of
the internal row-stochastic matrix.
"""

from __future__ import annotations

import math
from collections.abc import Callable
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
    """Directed multigraph as arc columns: arc i runs ``src[i]`` ->
    ``dst[i]`` with multiplicity ``weight[i]``; a pair may repeat.

    ``nodes`` fixes the index order: players, then GOAL last.  The chain's T
    is read off it on first access: ``row_sums``, ``rational``, ``floats``.
    """

    nodes: tuple[NodeRef, ...]
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    @property
    def n_players(self) -> int:
        return len(self.nodes) - 1

    def index_of(self, node: NodeRef) -> int:
        return self.nodes.index(node)

    @cached_property
    def counts(self) -> np.ndarray:
        """Dense int64 arc-count matrix, ``counts[i, j]`` arcs i -> j."""
        k = len(self.nodes)
        counts = np.zeros((k, k), dtype=np.int64)
        np.add.at(counts, (self.src, self.dst), self.weight)
        return counts

    @cached_property
    def row_sums(self) -> np.ndarray:
        """Out-degrees, the weights summed by ``src``: T's row divisors."""
        row_sums = np.zeros(len(self.nodes), dtype=np.int64)
        np.add.at(row_sums, self.src, self.weight)
        if (row_sums == 0).any():
            bad = int(np.argmin(row_sums))
            raise CorruptedGraphError(
                f"node {self.nodes[bad]!r} has no outgoing arcs; graph was not initialized"
            )
        return row_sums

    def _dense(self) -> np.ndarray:
        """A new C-ordered float64 T scattered from the arcs: the integer
        counts (exact in float64), each divided by its row's sum."""
        k = len(self.nodes)
        m = np.bincount(self.src * k + self.dst, self.weight, k * k).reshape(k, k)
        m /= self.row_sums[:, None]
        return m

    def _arc_matvec(self) -> Callable[[np.ndarray], np.ndarray]:
        """v -> T^t v as one weighted bincount over the arcs, O(arcs) per call."""
        k, src, dst = len(self.nodes), self.src, self.dst
        p = self.weight / self.row_sums[src]
        return lambda v: np.bincount(dst, p * v[src], k)

    @cached_property
    def floats(self) -> np.ndarray:
        return self._dense()

    @cached_property
    def rational(self) -> tuple[tuple[Fraction, ...], ...]:
        from fractions import Fraction  # imports decimal: only the exact dumps need it

        return tuple(
            tuple(Fraction(int(c), int(s)) for c in row)
            for row, s in zip(self.counts, self.row_sums)
        )


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
    nodes = (*rosters[0].ids, *rosters[1].ids, GOAL)
    n = len(nodes) - 1
    players, goal = np.arange(n), np.full(n + 1, n)
    # player -> goal, then goal -> everyone, incl. itself
    return PlayDigraph(nodes, np.concatenate((players, goal)),
                       np.concatenate((goal[:n], np.arange(n + 1))),
                       np.ones(2 * n + 1, dtype=np.int64))


def arc_columns(log: GameLog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, weight) of each event of ``log`` that adds an arc, in
    event order, as nodes of ``init_digraph(log.teams)``; a dead ball
    (weight 0) adds none.  Raises ValueError for an event type the sport
    lacks and KeyError for a player on neither roster (a validated log has
    neither)."""
    arr = log.arrays
    table = KIND_TABLE[log.sport]
    kind = arr.kind
    illegal = np.flatnonzero(table[0].take(kind) == 0)
    if len(illegal):
        raise ValueError(f"event {illegal[0]} is not a {log.sport.value} event")
    n = log.n_players
    unknown = np.flatnonzero((arr.a >= n) | (arr.b >= n))
    if len(unknown):
        raise KeyError(f"event {unknown[0]} names a player that is not a node")
    src_col, dst_col, by_field, constant = table[4:].take(kind, axis=1)
    m = len(kind)
    ends = np.concatenate((arr.a, arr.b, np.full(m, n)))  # role 0, role 1, the goal
    ends[ends < 0] = n  # no such role: the goal
    rows = np.arange(m)
    src, dst = ends.take(src_col * m + rows), ends.take(dst_col * m + rows)
    weight = by_field * arr.weight + constant  # constant is 0 where by_field
    live = weight != 0
    if live.all():
        return src, dst, weight
    return src[live], dst[live], weight[live]


def apply_events(g: PlayDigraph, log: GameLog) -> PlayDigraph:
    """``g`` with every event's arcs (``arc_columns``) appended.

    ``g`` has the log's nodes (``init_digraph(log.teams)``); events only add
    arcs, so the result dominates ``g`` in any event order.
    """
    return PlayDigraph(g.nodes, *(np.concatenate(pair)
                                  for pair in zip((g.src, g.dst, g.weight), arc_columns(log))))


def to_transition(g: PlayDigraph) -> PlayDigraph:
    """``g``, its out-degrees summed: the digraph is its own transition matrix."""
    g.row_sums  # raises CorruptedGraphError for a node without out-arcs
    return g


def check_primitive(t: PlayDigraph) -> int:
    """Certify T^2 > 0 from the goal hub, in O(k + arcs), and return 2.

    ``init_digraph`` gives the goal, the last node, an arc to and from every
    node, so the walk i -> goal -> j joins any i and j.  Without both fans
    the graph did not come from ``init_digraph``: CorruptedGraphError, even
    if another node is a hub.  An all-positive T also gets 2, not witness 1.
    """
    goal = len(t.nodes) - 1
    into = np.bincount(t.src[t.dst == goal], minlength=goal + 1)
    out = np.bincount(t.dst[t.src == goal], minlength=goal + 1)
    if not (into.all() and out.all()):
        raise CorruptedGraphError(
            "the last node lacks an arc to or from some node; graph was not initialized")
    return 2


def stationary_power(
    t: PlayDigraph,
    tol: float = POWER_TOL,
    max_iters: int = POWER_MAX_ITERS,
) -> RankVector:
    """Stationary vector by power iteration on T^t from the uniform vector.

    Iterates v <- T^t v, renormalizing to sum 1, until the L1 step change
    drops to ``tol``.  Raises NonConvergenceError instead of returning a
    best-effort vector: after ``max_iters`` iterations, or earlier, once the
    step's decay over the last half of the run (every 32 iterations) puts
    ``tol`` beyond twice ``max_iters``.  The step never grows, since T is
    stochastic, and it shrinks about geometrically.  Each step sums over the
    arcs, so no k x k matrix is built.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    k, matvec = len(t.nodes), t._arc_matvec()
    v = np.full(k, 1.0 / k)
    steps = []
    for it in range(1, max_iters + 1):
        nxt = matvec(v)
        nxt /= nxt.sum()
        step = float(np.abs(nxt - v).sum())
        v = nxt
        if step <= tol:
            residual = float(np.abs(matvec(v) - v).max())
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


def stationary_direct(t: PlayDigraph) -> RankVector:
    """Stationary vector from the linear system (T^t - I) v = 0, sum(v) = 1.

    The redundant last equation is replaced by the normalization row and the
    system solved densely by LU with partial pivoting.  Independent of the
    power route, so the two can cross-check each other.  The residual
    max |T^t v - v| is summed over the arcs.
    """
    k = len(t.nodes)
    a = t._dense().T  # T^t, F-ordered as LAPACK takes it; no k x k identity
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
    return RankVector(t.nodes, v, float(np.abs(t._arc_matvec()(v) - v).max()), "direct")
