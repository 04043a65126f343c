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
that adds one (``arc_columns``).  Only a valid game has a digraph:
``pipeline.build_digraph`` runs ``validate_game`` before it builds one, and
nothing here checks the log again.  Building costs O(n + events), not
O(k^2) for k = n + 1 nodes.  The dense int64 arc-count matrix ``counts`` is
built only when asked for; the matrix dumps merge the arcs themselves.

The digraph is its own transition matrix, T[i][j] = arcs(i->j) / outdeg(i),
row-stochastic, with the out-degrees (``row_sums``) summed from the arcs, so
each entry is an exact ratio of integers (``render.render_matrix`` writes it
as one).  The stationary vector v solves T^t v = v with sum(v) = 1 and is
computed two independent ways: power iteration on T^t and a direct linear
solve.  Each serves as an oracle for the other.  Both may read a dense
float64 T^t from one builder (``_dense_transpose``), which scatters the arcs
into a buffer kept per thread and grown to the largest k^2 it has held:
8 k^2 bytes survive a solve.  Power iteration steps on it (one BLAS product,
O(k^2)) when k^2 <= arcs, so the matrix holds no more entries than the arc
list; otherwise each step is one weighted bincount over the arcs, O(arcs),
and nothing k x k is built.  The direct solve is an LU with partial pivoting
on it, O(k^3), unless k^3 > HUB_CROSSOVER arcs, where the hub solve is the
faster (a measured crossover): it censors the chain on the goal hub and
solves the players' system by BiCGSTAB, O(arcs) per step, building nothing
k x k (``_hub_solve``).  That vector is kept only when its residual is
within the rounding allowance the LU's vector meets; otherwise, or without
the goal hub, the LU runs.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable
from functools import cached_property

import numpy as np

from .model import GOAL, KIND_TABLE, GameLog, NodeRef, Record

POWER_TOL = 1e-12
POWER_MAX_ITERS = 1_000
HUB_MAX_ITERS = 100  # BiCGSTAB steps of the hub solve before the LU takes over
# The direct solve tries the hub where k^3 > HUB_CROSSOVER arcs, as the LU
# costs O(k^3) and the hub solve a few dozen products over the arcs.  Timed
# against each other for k from 8 to 1,024 and arcs from about 2k to k^2 (one
# BLAS thread), 4,096 lost the least time of the thresholds from 1,000 to
# 10,000; the 18 of 296 games it sends the slower way lost at most 1 ms.
HUB_CROSSOVER = 4_096
_ROUNDING = 2.0 ** -53  # unit roundoff of float64

_workspace = threading.local()  # ``buf``: this thread's float64 T^t storage


class RankingError(Exception):
    """Base class for graph/solver failures."""


class CorruptedGraphError(RankingError):
    """The graph lacks what build_digraph guarantees (non-negative arc weights,
    out-arcs, the goal hub)."""


class NonConvergenceError(RankingError):
    """Power iteration hit max_iters with the step change above tolerance."""


class SingularSystemError(RankingError):
    """The direct linear system broke down (non-primitive or corrupt matrix)."""


class PlayDigraph(Record, by_identity=True):
    """Directed multigraph as arc columns: arc i runs ``src[i]`` ->
    ``dst[i]`` with multiplicity ``weight[i]``; a pair may repeat.

    ``nodes`` fixes the index order: players, then GOAL last.  The chain's T
    is the weights over ``row_sums``, the out-degrees summed on first access.
    """

    nodes: tuple[NodeRef, ...]
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    @cached_property
    def counts(self) -> np.ndarray:
        """Dense int64 arc-count matrix, ``counts[i, j]`` arcs i -> j."""
        k = len(self.nodes)
        counts = np.zeros((k, k), dtype=np.int64)
        np.add.at(counts, (self.src, self.dst), self.weight)
        return counts

    @cached_property
    def row_sums(self) -> np.ndarray:
        """Out-degrees, the weights summed by ``src``: T's row divisors.  A
        negative weight or a node without out-arcs is a CorruptedGraphError."""
        negative = np.flatnonzero(self.weight < 0)
        if negative.size:
            i = negative[0]
            raise CorruptedGraphError(
                f"arc {self.nodes[self.src[i]]!r} -> {self.nodes[self.dst[i]]!r} has weight "
                f"{self.weight[i]}; arc weights count events")
        row_sums = np.zeros(len(self.nodes), dtype=np.int64)
        np.add.at(row_sums, self.src, self.weight)
        if (row_sums == 0).any():
            bad = int(np.argmin(row_sums))
            raise CorruptedGraphError(
                f"node {self.nodes[bad]!r} has no outgoing arcs; graph was not initialized"
            )
        return row_sums

    def _dense_transpose(self) -> np.ndarray:
        """T^t as an F-ordered k x k view of this thread's buffer, which the
        next call in the thread overwrites: the integer counts (exact in
        float64) scattered in, each column divided by its node's row sum."""
        k = len(self.nodes)
        buf = getattr(_workspace, "buf", None)
        if buf is None or buf.size < k * k:
            buf = _workspace.buf = np.empty(k * k)
        flat = buf[:k * k]
        flat.fill(0.0)
        # 1-D and float64 on both sides: numpy's fast path for add.at
        np.add.at(flat, self.dst + self.src * k, self.weight.astype(np.float64))
        tt = flat.reshape((k, k), order="F")  # tt[j, i] = arcs(i -> j)
        tt /= self.row_sums
        return tt

    def _arc_matvec(self) -> Callable[[np.ndarray], np.ndarray]:
        """v -> T^t v as one weighted bincount over the arcs, O(arcs) per call."""
        k, src, dst = len(self.nodes), self.src, self.dst
        p = self.weight / self.row_sums[src]
        return lambda v: np.bincount(dst, p * v[src], k)


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


def arc_columns(log: GameLog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, weight) of each event of ``log`` that adds an arc, in
    event order, as nodes of the log's digraph; a dead ball (weight 0) adds
    none.  Reads a validated log: an event type the sport lacks or a player
    on neither roster gives arcs that mean nothing."""
    arr = log.arrays
    kind = arr.kind
    src_col, dst_col, by_field, constant = KIND_TABLE[log.sport][4:].take(kind, axis=1)
    n, m = log.n_players, len(kind)
    ends = np.concatenate((arr.a, arr.b, np.full(m, n)))  # role 0, role 1, the goal
    ends[ends < 0] = n  # no such role: the goal
    rows = np.arange(m)
    src, dst = ends.take(src_col * m + rows), ends.take(dst_col * m + rows)
    weight = by_field * arr.weight + constant  # constant is 0 where by_field
    live = weight != 0
    return src[live], dst[live], weight[live]


def _play_digraph(log: GameLog) -> PlayDigraph:
    """The digraph of a validated ``log`` (``pipeline.build_digraph`` checks
    first): player -> goal arcs, goal -> everyone incl. itself, then each
    event's arcs (``arc_columns``).  Events only add arcs, so the goal hub
    stands in any event order."""
    n = log.n_players
    every, goal = np.arange(n + 1), np.full(n + 1, n)
    src, dst, weight = arc_columns(log)
    return PlayDigraph((*log.teams[0].ids, *log.teams[1].ids, GOAL),
                       np.concatenate((every[:n], goal, src)),
                       np.concatenate((goal[:n], every, dst)),
                       np.concatenate((np.ones(2 * n + 1, dtype=np.int64), weight)))


def to_transition(g: PlayDigraph) -> PlayDigraph:
    """``g``, its out-degrees summed: the digraph is its own transition matrix."""
    g.row_sums  # raises CorruptedGraphError for a negative weight or a node without out-arcs
    return g


def check_primitive(t: PlayDigraph) -> int:
    """Certify T^2 > 0 from the goal hub, in O(k + arcs), and return 2.

    ``build_digraph`` gives the goal, the last node, an arc to and from every
    node, so the walk i -> goal -> j joins any i and j.  Without both fans
    the graph did not come from ``build_digraph``: CorruptedGraphError, even
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
    stochastic, and it shrinks about geometrically.  A step multiplies the
    dense T^t when it has no more entries than the arcs (k^2 <= arcs), and
    sums over the arcs otherwise, building nothing k x k.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    k = len(t.nodes)
    matvec = t._dense_transpose().dot if k * k <= len(t.src) else t._arc_matvec()
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


def _hub_solve(t: PlayDigraph) -> tuple[np.ndarray, np.ndarray] | None:
    """The stationary vector v through the goal hub (the last node), with
    its residual T^t v - v, in O(arcs) per step and nothing k x k; or None.

    With Q the chain among the players and g the goal, pi_P (I - Q) =
    pi_g T[g, P] (Meyer 1989), so x = pi_P / pi_g solves (I - Q)^t x =
    T[g, P]^t and v = [x, 1] / (sum(x) + 1).  When every player has an arc
    to the goal, Q is strictly substochastic and I - Q a nonsingular
    M-matrix.  BiCGSTAB (van der Vorst 1992) solves it, one bincount over
    the player-to-player arcs per product.  The arcs of each (src, dst) pair
    are merged first, their counts summed exactly as in the LU's T^t, so a
    product adds one term per pair.  Its own residual test only ends a run:
    v is returned only if its L1 residual, summed over the merged arcs, is
    within the rounding allowance 2 (k + 2) 2^-53 that the dense solve's
    vector meets.  A breakdown restarts from the true residual, and so does
    the first refused vector, since the recurred residual may have drifted
    from it; a vector with a negative entry is refused too.  None without
    the arcs to the goal, for a residual that is not finite, at a second
    refusal or after HUB_MAX_ITERS steps.
    """
    k = len(t.nodes)
    g = k - 1
    pairs, which = np.unique(t.src * k + t.dst, return_inverse=True)
    src, dst = np.divmod(pairs, k)
    weight = np.bincount(which, t.weight)  # each pair's counts, summed exactly
    into = dst == g
    if not np.bincount(src[into], weight[into], k)[:g].all():
        return None
    p = weight / t.row_sums[src]
    among, out = (src != g) & ~into, (src == g) & ~into
    s, d, q = src[among], dst[among], p[among]
    b = np.bincount(dst[out], p[out], g)

    def a(y):  # (I - Q)^t y
        return y - np.bincount(d, q * y[s], g)
    allowance = 2 * (k + 2) * _ROUNDING
    floor = _ROUNDING * math.sqrt(b @ b)
    x, r, restart, refused = np.zeros(g), b.copy(), True, False
    for _ in range(HUB_MAX_ITERS):
        norm = math.sqrt(r @ r)
        if not math.isfinite(norm):
            return None
        if norm <= floor:  # converged by its own test: certify
            if x.min() >= 0.0:
                v = np.append(x, 1.0)
                v /= v.sum()
                residual = np.bincount(dst, p * v[src], k) - v
                if np.abs(residual).sum() <= allowance:
                    return v, residual
            if refused:
                return None
            r, restart, refused = b - a(x), True, True
        if restart:  # a fresh shadow residual and search directions
            r0, u, w = r.copy(), 0.0, 0.0
            rho = alpha = omega = 1.0
            restart = False
        rho_next = float(r0 @ r)
        try:
            u = r + (rho_next / rho) * (alpha / omega) * (u - omega * w)
            w = a(u)
            alpha = rho_next / float(r0 @ w)
            r -= alpha * w  # BiCGSTAB's s
            x += alpha * u
            if math.sqrt(r @ r) <= floor:
                continue
            z = a(r)
            omega = float(z @ r) / float(z @ z)
        except ZeroDivisionError:  # a breakdown
            r, restart = b - a(x), True
            continue
        x += omega * r
        r -= omega * z
        rho = rho_next
    return None


def stationary_direct(t: PlayDigraph) -> RankVector:
    """Stationary vector from the linear system (T^t - I) v = 0, sum(v) = 1.

    Where k^3 > HUB_CROSSOVER arcs it solves the smaller system the goal
    hub gives (``_hub_solve``), building nothing k x k, and keeps that vector
    only if its residual is within the rounding allowance: its L1 error is
    then at most the allowance times max_i (out-degree i / arcs(i -> goal))
    (Seneta 1981), the same bound the LU's vector meets.  Otherwise (denser
    graphs, no arc from some node into the last one, or no vector accepted)
    the redundant last equation is replaced by the normalization row and the
    system solved densely by LU with partial pivoting, set up in this
    thread's T^t buffer (``_dense_transpose``).  Independent of the power
    route, so the two can cross-check each other.  The residual
    max |T^t v - v| is summed over the arcs.
    """
    k = len(t.nodes)
    hub = _hub_solve(t) if k ** 3 > HUB_CROSSOVER * len(t.src) else None
    if hub is not None:
        v, r = hub
        return RankVector(t.nodes, v, float(np.abs(r).max()), "direct")
    a = t._dense_transpose()  # F-ordered as LAPACK takes it; no k x k identity
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
