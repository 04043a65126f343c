"""Smoke tests for the benchmark at tiny sizes.

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from playrank import build_digraph  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_games():
    return (gen.season(5, games=6, events=(40, 80))
            + gen.wide_roster(5, games=2, events=(40, 80), players=(30, 40))
            + gen.pickup_games(5, games=2) + [gen.demo_game()])


def test_generator_is_seeded():
    a, b, c = (gen.season(s, games=3, events=(20, 30)) for s in (1, 1, 2))
    assert [g.text for g in a] == [g.text for g in b]
    assert all((x.src == y.src).all() and (x.weight == y.weight).all() for x, y in zip(a, b))
    assert [g.text for g in a] != [g.text for g in c]
    assert sorted(g.events for g in gen.wide_roster(1, games=4)) == \
        sorted(g.events for g in gen.wide_roster(2, games=4))


def test_recorded_arcs_are_playrank_adjacency():
    for game in _tiny_games():
        log = workloads.parse(game)
        assert log.n_players == len(game.players)
        assert (build_digraph(log).counts == oracle.expected_adjacency(game)).all(), game.gid


def test_oracle_agrees_with_playrank():
    for game in _tiny_games():
        _, text = workloads.run_game(game, "both")
        assert oracle.check_report_json(text, oracle.expected_ipms(game)) is None, game.gid
    demo = oracle.expected_ipms(gen.demo_game())
    assert demo["C"] == pytest.approx(64.657, abs=1e-3)
    assert demo["B"] == pytest.approx(1762600 / 33639, abs=1e-9)


def test_oracle_catches_a_wrong_ipm():
    game = gen.demo_game()
    want = oracle.expected_ipms(game)
    _, text = workloads.run_game(game, "power")
    assert oracle.check_report_json(text, want) is None
    doc = json.loads(text)
    doc["players"][0]["ipm"] += 1e-6
    assert oracle.check_report_json(json.dumps(doc), want) is not None


@pytest.mark.parametrize("which", [0, -1])
def test_oracle_catches_a_nan_ipm(which):
    game = gen.demo_game()
    want = oracle.expected_ipms(game)
    _, text = workloads.run_game(game, "power")
    doc = json.loads(text)
    doc["players"][which]["ipm"] = float("nan")
    assert oracle.check_report_json(json.dumps(doc), want) is not None
    for p in doc["players"]:
        p["ipm"] = float("nan")
    assert oracle.check_report_json(json.dumps(doc), want) is not None
    table = "Player | Team | IPM\n" + "".join(f"{p} | T | nan\n" for p in want)
    assert oracle.check_table(table, want) is not None
    means = {p: 50.0 for p in want}
    assert oracle.check_comparison_table(
        "Player | g1 | mean\n" + "".join(f"{p} | 1 | nan\n" for p in want), means) is not None


def test_oracle_counts_a_malformed_table_as_failed():
    want = oracle.expected_ipms(gen.demo_game())
    assert oracle.check_table("Player | Team | IPM\nA | T | 5o.00\n", want) is not None
    assert oracle.check_comparison_table("Player | mean\nA | x\n", {"A": 1.0}) is not None


def test_peak_rss_is_the_child_own(tmp_path):
    """A vfork+exec child inherits its parent's ru_maxrss; the probe must not."""
    games = gen.season(5, games=3, events=(40, 80))
    paths = [str(workloads.write_game(tmp_path, g)) for g in games]
    ballast = b"\x01" * (256 << 20)
    mb = workloads.peak_rss_mb(ROOT, tmp_path, "compare", *paths,
                               "-o", str(tmp_path / "out.txt"))
    del ballast
    assert 1.0 < mb < 200.0


def test_self_time_subtracts_children():
    tracer = workloads.Tracer()
    tracer.call("outer", lambda: tracer.call("inner", sum, range(1000)))
    every, _ = tracer.self_times()
    outer, inner = tracer.spans
    assert every["outer"][0] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start))
    assert inner.parent == 0 and outer.parent is None


def _run(cwd: Path, *args: str):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_prints_the_contract_line(workload, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--tiny", "--spans", str(spans))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert spans.is_file() == bool(trace)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "season", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert not out.stdout.strip()
