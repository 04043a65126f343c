"""The benchmark's workloads, their closed loops and the traced run.

Every workload is one caller in one process (no worker threads) that sends
its next game only after the previous one has finished.  ``measure`` runs
with tracing off and yields the end-to-end metrics; ``trace`` times each
public pipeline function from outside the package and yields the per-layer
metrics.  Why each workload exists is in README.md next to this file.

Timings are taken with a ``clock.Clock``: each timed unit of work is scaled
to the reference machine speed measured next to it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gen
import numpy as np
import oracle
from clock import Clock

from playrank import gamelog_json, metrics, pipeline, playscript, ranking, render

PROBE = Path(__file__).resolve().parent / "probe.py"
MEMPROBE = Path(__file__).resolve().parent / "memprobe.py"
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
COMPARE_REPEATS = 3  # one compare per round is too few samples on wide_roster
REPEATS_PER_CYCLE = 2  # likewise one batch or compare per cli cycle

# Functions that analyze_game looks up in playrank.pipeline, and the layer
# each one is reported under.
PIPELINE_STAGES = {
    "validate_game": "model.validate",
    "build_digraph": "ranking.build_digraph",
    "to_transition": "ranking.to_transition",
    "check_primitive": "ranking.check_primitive",
    "stationary_power": "ranking.stationary_power",
    "stationary_direct": "ranking.stationary_direct",
    "compute_ipm": "metrics.compute_ipm",
    "aggregates": "metrics.aggregates",
}
PARSE_LAYER = {"json": "gamelog_json.parse", "playscript": "playscript.parse"}

# Per-layer metrics: (metric name, span name, unit).  "us/event" divides a
# layer's self time by the events it handled, "ms" by the calls made.
LAYER_METRICS = (
    ("gamelog_json.parse_us_per_event", "gamelog_json.parse", "us/event"),
    ("gamelog_json.json_loads_us_per_event", "gamelog_json.json_loads", "us/event"),
    ("playscript.parse_us_per_event", "playscript.parse", "us/event"),
    ("model.validate_us_per_event", "model.validate", "us/event"),
    ("ranking.build_digraph_us_per_event", "ranking.build_digraph", "us/event"),
    ("ranking.to_transition_ms", "ranking.to_transition", "ms"),
    ("ranking.check_primitive_ms", "ranking.check_primitive", "ms"),
    ("ranking.stationary_power_ms", "ranking.stationary_power", "ms"),
    ("ranking.stationary_direct_ms", "ranking.stationary_direct", "ms"),
    ("metrics.compute_ipm_ms", "metrics.compute_ipm", "ms"),
    ("metrics.aggregates_ms", "metrics.aggregates", "ms"),
    ("render.render_report_ms", "render.render_report", "ms"),
    ("metrics.compare_games_ms", "metrics.compare_games", "ms"),
    ("pipeline.self_ms", "pipeline.analyze_game", "ms"),
)
COUNT_METRICS = ("model.players", "model.events", "ranking.arcs_added",
                 "ranking.power_iterations")
STARTUP_METRICS = {"cli.interpreter_ms": "pass", "cli.import_ms": "import playrank"}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    game: str | None
    events: int
    scale: float


class Tracer:
    """Spans kept in memory: name, start, end, parent span and game id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.game: str | None = None
        self.events = 0   # events of the current game, the default for spans
        self.scale = 1.0  # machine speed scale of the current game
        self._open: list[int] = []

    def call(self, name: str, fn, *args, events: int | None = None, **kwargs):
        span = Span(name, perf_counter(), 0.0, self._open[-1] if self._open else None,
                    self.game, self.events if events is None else events, self.scale)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()

    def patch(self, module, stages: dict[str, str]) -> dict:
        """Route ``module``'s stage functions through spans; returns the
        originals for ``restore``."""
        saved = {attr: getattr(module, attr) for attr in stages}
        for attr, name in stages.items():
            fn = saved[attr]
            setattr(module, attr,
                    lambda *a, _fn=fn, _name=name, **kw: self.call(_name, _fn, *a, **kw))
        return saved

    @staticmethod
    def restore(module, saved: dict) -> None:
        for attr, fn in saved.items():
            setattr(module, attr, fn)

    def self_times(self):
        """Per span name: [self seconds at reference speed, calls, events]
        over all spans, and self seconds over spans inside a "game" span."""
        child = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, s in enumerate(self.spans):
            root[i] = i if s.parent is None else root[s.parent]
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        every: dict[str, list] = {}
        in_game: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            own = (s.end - s.start - child[i]) * s.scale
            acc = every.setdefault(s.name, [0.0, 0, 0])
            acc[0] += own
            acc[1] += 1
            acc[2] += s.events
            if self.spans[root[i]].name == "game":
                in_game[s.name] = in_game.get(s.name, 0.0) + own
        return every, in_game

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "game": s.game,
                                     "events": s.events, "scale": s.scale}) + "\n")


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{what}: {problem}")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def parse(game):
    if game.fmt == "json":
        return gamelog_json.parse_gamelog(game.text)
    return playscript.parse_playscript(game.text)


def run_game(game, solver: str):
    """One user operation: parse, analyze, render the JSON report."""
    analysis = pipeline.analyze_game(parse(game), solver=solver)
    return analysis, render.render_report(analysis.report, analysis.teams, "json",
                                          solver_gap=analysis.solver_gap)


class SetupProbes:
    """``setup_s``: a fresh interpreter's ``import playrank`` plus its first
    game, timed and scaled inside the child, SETUP_REPEATS times spread
    evenly over the measured run; the median is reported.  No timed game
    overlaps a probe."""

    def __init__(self, root: Path, game, solver: str, seconds: float, clock: Clock):
        self.cmd = [sys.executable, str(PROBE), game.fmt, solver]
        self.text = game.text
        self.root = root
        self.clock = clock  # picks the CPU the child starts on
        self.seconds = seconds
        self.start = perf_counter()
        self.times: list[float] = []

    def _probe(self) -> None:
        self.clock.ready()
        out = subprocess.run(self.cmd, input=self.text, capture_output=True, text=True,
                             env=child_env(self.root), cwd=self.root, timeout=120,
                             check=True)
        self.times.append(float(out.stdout.split()[-1]))

    def maybe(self) -> None:
        due = len(self.times) * self.seconds / SETUP_REPEATS
        if len(self.times) < SETUP_REPEATS and perf_counter() - self.start >= due:
            self._probe()

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self._probe()
        return statistics.median(self.times)


def startup_probes(root: Path, clock: Clock) -> dict[str, float]:
    """Median wall ms of a bare interpreter and of ``import playrank``."""
    walls = {name: [] for name in STARTUP_METRICS}
    for _ in range(STARTUP_REPEATS):
        for name, code in STARTUP_METRICS.items():
            _, wall = clock.timed(subprocess.run, [sys.executable, "-c", code],
                                  env=child_env(root), cwd=root, timeout=120, check=True)
            walls[name].append(wall * 1e3)
    return {k: statistics.median(v) for k, v in walls.items()}


def peak_rss_mb(root: Path, work: Path, *command: str) -> float:
    """Peak RSS of a fresh interpreter running one playrank command
    (``memprobe.py``); this process's own RSS would mostly measure the
    benchmark's inputs and expected values."""
    out = subprocess.run([sys.executable, str(MEMPROBE), *command], capture_output=True,
                         text=True, env=child_env(root), cwd=work, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def medians(samples: dict[str, list[float]]) -> list[float]:
    """Each input's median over its repeats in the run."""
    return [statistics.median(v) for v in samples.values() if v]


def _repeats(samples: dict[str, list[float]]) -> list[int]:
    counts = [len(v) for v in samples.values()]
    return [min(counts), max(counts)]


def write_game(work: Path, game) -> Path:
    path = work / f"{game.gid}.{'json' if game.fmt == 'json' else 'play'}"
    path.write_text(game.text, encoding="utf-8")
    return path


def _latency_metrics(per_game: list[float]) -> dict[str, float]:
    return {"game_ms_p50": 1e3 * statistics.median(per_game),
            "game_ms_p90": 1e3 * float(np.percentile(per_game, 90))}


# ---------------------------------------------------------------------------
# In-process workloads: season and wide_roster
# ---------------------------------------------------------------------------

class InProcess:
    """Games run in rounds; after each round compare_games joins its reports."""

    def __init__(self, games: list, solver: str, round_size: int, root: Path, work: Path):
        self.games = games
        self.root = root
        self.work = work
        self.solver = solver
        self.rounds = [games[i:i + round_size] for i in range(0, len(games), round_size)]
        self.wants = {g.gid: oracle.expected_ipms(g) for g in games}
        self.means = [oracle.expected_means({g.gid: self.wants[g.gid] for g in r})
                      for r in self.rounds]
        self.clock = Clock()

    def measure(self, seconds: float, tally: Tally):
        """Whole rounds until ``seconds`` have passed; every game and every
        round's comparison is repeated once per pass."""
        setup = SetupProbes(self.root, self.games[0], self.solver, seconds, self.clock)
        times = {g.gid: [] for g in self.games}
        compares = {r: [] for r in range(len(self.rounds))}
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            for r, games in enumerate(self.rounds):
                reports = {}
                for game in games:
                    try:
                        (analysis, text), took = self.clock.timed(run_game, game, self.solver)
                    except Exception as exc:  # a raised game counts as failed
                        tally.record(game.gid, repr(exc))
                        continue
                    times[game.gid].append(took)
                    reports[game.gid] = analysis.report
                    tally.record(game.gid, oracle.check_report_json(text, self.wants[game.gid]))
                for _ in range(COMPARE_REPEATS):
                    table, took = self.clock.timed(metrics.compare_games, reports)
                    compares[r].append(took)
                    tally.record(f"compare round {r}",
                                 oracle.check_comparison(table, self.means[r]))
                setup.maybe()
                if perf_counter() >= deadline:
                    break
        per_game = medians(times)
        return {
            "games_per_s": len(per_game) / sum(per_game),
            **_latency_metrics(per_game),
            "compare_ms": 1e3 * statistics.median(medians(compares)),
            "setup_s": setup.median(),
            "peak_rss_mb": self.peak_rss_mb(),
        }, {"games": len(per_game), "repeats_per_game": _repeats(times),
            "compare_rounds": len(compares), "repeats_per_round": _repeats(compares),
            "speed_scale_median": statistics.median(self.clock.scales)}

    def peak_rss_mb(self) -> float:
        """``playrank compare`` over the round holding the largest game: it
        rates each game and joins the reports, as a round here does."""
        largest = max(self.rounds, key=lambda r: max(g.events for g in r))
        return peak_rss_mb(self.root, self.work, "compare", "--solver", self.solver,
                           "-o", str(self.work / "memprobe-compare.txt"),
                           *(str(write_game(self.work, g)) for g in largest))

    def trace(self, seconds: float, tally: Tally, tracer: Tracer) -> dict:
        """At least one full pass, then whole rounds until ``seconds``.

        Each game runs once untraced and once traced, alternating which goes
        first, for the tracing overhead.  Layers the workload's own path
        never reaches (the stdlib ``json.loads`` floor, the playscript
        parser on JSON workloads, the direct solver when the path uses only
        power iteration) are timed on the same game outside the game span.
        """
        fmts = {g.fmt for g in self.games}
        plain, traced, counts = [], [], {}
        deadline = perf_counter() + seconds
        passes = 0
        while passes == 0 or perf_counter() < deadline:
            for r, games in enumerate(self.rounds):
                reports = {}
                for i, game in enumerate(games):
                    tracer.game, tracer.events = game.gid, game.events
                    for with_spans in ((False, True) if i % 2 else (True, False)):
                        try:
                            (analysis, text), took = (
                                self.clock.timed(self._traced_game, game, tracer)
                                if with_spans else self.clock.timed(run_game, game, self.solver))
                        except Exception as exc:
                            tally.record(game.gid, repr(exc))
                            break
                        (traced if with_spans else plain).append(took)
                        tally.record(game.gid, oracle.check_report_json(
                            text, self.wants[game.gid]))
                    else:
                        reports[game.gid] = analysis.report
                        counts.setdefault(game.gid, _counts(game, analysis))
                        self._probes(game, analysis, fmts, tracer)
                tracer.game, tracer.events = None, 0
                tracer.scale = self.clock.ready()
                table = tracer.call("metrics.compare_games", metrics.compare_games, reports)
                tally.record(f"compare round {r}", oracle.check_comparison(table, self.means[r]))
                if passes and perf_counter() >= deadline:
                    break
            passes += 1
        return _layer_metrics(tracer, counts, plain, traced)

    def _traced_game(self, game, tracer: Tracer):
        tracer.scale = self.clock.scale
        saved = tracer.patch(pipeline, PIPELINE_STAGES)
        try:
            def body():
                log = tracer.call(PARSE_LAYER[game.fmt], parse, game)
                analysis = tracer.call("pipeline.analyze_game", pipeline.analyze_game,
                                       log, solver=self.solver)
                text = tracer.call("render.render_report", render.render_report,
                                   analysis.report, analysis.teams, "json",
                                   solver_gap=analysis.solver_gap)
                return analysis, text
            return tracer.call("game", body)
        finally:
            tracer.restore(pipeline, saved)

    def _probes(self, game, analysis, fmts, tracer: Tracer) -> None:
        tracer.scale = self.clock.ready()
        if game.fmt == "json":
            tracer.call("gamelog_json.json_loads", json.loads, game.text)
        if "playscript" not in fmts:
            tracer.call("playscript.parse", playscript.parse_playscript, game.play_text,
                        events=game.play_events)
        if self.solver == "power":
            tracer.call("ranking.stationary_direct", ranking.stationary_direct,
                        analysis.transition)


def _counts(game, analysis) -> tuple[int, int, int, int]:
    n = len(game.players)
    return (n, game.events, int(analysis.digraph.counts.sum()) - (2 * n + 1),
            analysis.rank.iterations)


def _layer_metrics(tracer: Tracer, counts: dict, plain: list, traced: list) -> dict:
    every, _ = tracer.self_times()
    out = {}
    for metric, span, unit in LAYER_METRICS:
        own, calls, events = every[span]
        out[metric] = own * 1e6 / events if unit == "us/event" else own * 1e3 / calls
    per_game = list(counts.values())
    for i, metric in enumerate(COUNT_METRICS):
        out[metric] = sum(c[i] for c in per_game) / len(per_game)
    out["tracing_overhead_frac"] = sum(traced) / sum(plain) - 1.0
    return out


def stage_shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's share of the self time inside "game" spans."""
    _, in_game = tracer.self_times()
    total = sum(in_game.values())
    return {name: t / total for name, t in sorted(in_game.items(), key=lambda kv: -kv[1])}


# ---------------------------------------------------------------------------
# The cli workload: fresh playrank processes, one at a time
# ---------------------------------------------------------------------------

class Cli:
    """``rank`` on small playscript games, ``compare`` across them and a
    ``batch`` over season-sized JSON files, each a fresh process."""

    def __init__(self, plays: list, batch: list, root: Path, work: Path):
        self.plays = plays
        self.batch = batch
        self.root = root
        self.work = work
        self.inprocess = InProcess(plays + batch, "power", len(plays + batch), root, work)
        self.wants = self.inprocess.wants
        self.clock = self.inprocess.clock
        pickups = [g for g in plays if g.gid.startswith("pickup")]
        self.compare_means = oracle.expected_means({g.gid: self.wants[g.gid] for g in pickups})
        self.paths = {g.gid: write_game(work, g) for g in plays + batch}
        self.compare_paths = [str(self.paths[g.gid]) for g in pickups]

    def _cli(self, *args: str):
        return self.clock.timed(
            subprocess.run, [sys.executable, "-m", "playrank.cli", *args],
            capture_output=True, text=True, env=child_env(self.root), cwd=self.work,
            timeout=120)

    @staticmethod
    def _exit(out) -> str | None:
        return f"exit {out.returncode}: {out.stderr[-200:]}" if out.returncode else None

    def measure(self, seconds: float, tally: Tally):
        """Cycles of REPEATS_PER_CYCLE ``batch`` runs, one ``rank`` per
        playscript game and REPEATS_PER_CYCLE ``compare`` runs until
        ``seconds`` have passed."""
        setup = SetupProbes(self.root, self.plays[0], "power", seconds, self.clock)
        ranks = {g.gid: [] for g in self.plays}
        batches, compares = [], []
        deadline = perf_counter() + seconds
        cycle = 0
        while perf_counter() < deadline:
            for b in range(REPEATS_PER_CYCLE):
                out_dir = self.work / f"batch-{cycle}-{b}"
                out, took = self._cli("batch", *(str(self.paths[g.gid]) for g in self.batch),
                                      "--output-dir", str(out_dir), "--format", "json")
                batches.append(took)
                tally.record("batch", self._exit(out)
                             or oracle.check_batch(out_dir, self.batch, self.wants))
            for game in self.plays:
                out, took = self._cli("rank", str(self.paths[game.gid]))
                ranks[game.gid].append(took)
                tally.record(game.gid, self._exit(out)
                             or oracle.check_table(out.stdout, self.wants[game.gid]))
            for _ in range(REPEATS_PER_CYCLE):
                out, took = self._cli("compare", *self.compare_paths)
                compares.append(took)
                tally.record("compare", self._exit(out) or oracle.check_comparison_table(
                    out.stdout, self.compare_means))
            setup.maybe()
            cycle += 1
        return {
            "games_per_s": len(self.batch) / statistics.median(batches),
            **_latency_metrics(medians(ranks)),
            "compare_ms": 1e3 * statistics.median(compares),
            "setup_s": setup.median(),
            "peak_rss_mb": peak_rss_mb(self.root, self.work, "batch",
                                       *(str(self.paths[g.gid]) for g in self.batch),
                                       "--output-dir", str(self.work / "memprobe-batch"),
                                       "--format", "json"),
        }, {"rank_inputs": len(ranks), "cycles": cycle, "batch_games": len(self.batch),
            "speed_scale_median": statistics.median(self.clock.scales)}

    def trace(self, seconds: float, tally: Tally, tracer: Tracer) -> dict:
        """Child processes cannot be traced from outside the package, so the
        layers are timed on the same inputs in process."""
        return self.inprocess.trace(seconds, tally, tracer)


def build(name: str, seed: int, root: Path, work: Path, tiny: bool):
    """The named workload's inputs, made from ``seed``."""
    if name == "season":
        games = gen.season(seed, games=6, events=(100, 400)) if tiny else gen.season(seed)
        return InProcess(games, "power", 24, root, work)
    if name == "wide_roster":
        games = (gen.wide_roster(seed, games=3, events=(100, 300)) if tiny
                 else gen.wide_roster(seed))
        return InProcess(games, "both", 24, root, work)
    if name == "cli":
        plays = [gen.demo_game()] + gen.pickup_games(seed, games=2 if tiny else 8)
        batch = (gen.season(seed, games=3, events=(100, 400)) if tiny
                 else gen.season(seed, games=24))
        return Cli(plays, batch, root, work)
    raise ValueError(f"unknown workload {name!r}")
