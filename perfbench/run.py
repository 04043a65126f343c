"""playrank benchmark: seeded inputs, closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload season --seed 1 --seconds 30 --trace 0

runs one workload (season, wide_roster or cli) for ``--seconds`` and prints,
as its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--repeat N`` runs N such runs on seeds
seed..seed+N-1, one after another, and prints the median and quartiles of
every metric.  ``--tiny`` shrinks the inputs for smoke tests.  See README.md
in this directory for what each workload and metric is for.
"""

import os

# BLAS threads are pinned before anything imports numpy: on a two-core box
# OpenBLAS's own threads add jitter of their own to the solver timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("season", "wide_roster", "cli")

END_TO_END_UNITS = {
    "games_per_s": "1/s",
    "game_ms_p50": "ms",
    "game_ms_p90": "ms",
    "compare_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "playrank").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_playrank_lines": src_lines,
    }


def run_once(args) -> int:
    src = ROOT / "src"
    if not (src / "playrank" / "__init__.py").is_file():
        print(f"perfbench: no playrank package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import playrank

    if Path(playrank.__file__).resolve().parent != (src / "playrank").resolve():
        print(f"perfbench: imported playrank from {playrank.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import workloads

    work = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        wl = workloads.build(args.workload, args.seed, ROOT, work, args.tiny)
        tally = workloads.Tally()
        if args.trace:
            tracer = workloads.Tracer()
            values = wl.trace(args.seconds, tally, tracer)
            values.update(workloads.startup_probes(ROOT, wl.clock))
            units = {m: u for m, _, u in workloads.LAYER_METRICS}
            units.update({m: "count/game" for m in workloads.COUNT_METRICS})
            units.update({m: "ms" for m in workloads.STARTUP_METRICS})
            units["tracing_overhead_frac"] = "frac"
            spans = args.spans or ROOT / ".perfbench-out" / (
                f"{args.workload}-seed{args.seed}.spans.jsonl")
            tracer.write(Path(spans))
            info = {"spans": str(spans), "stage_shares": {
                k: round(v, 4) for k, v in workloads.stage_shares(tracer).items()}}
        else:
            values, info = wl.measure(args.seconds, tally)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info["failed_frac"] = tally.failed / tally.attempted
    info["failures"] = tally.reasons
    print("env: " + json.dumps(_environment()))
    print("info: " + json.dumps(info))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


def repeat(args) -> int:
    """Run ``--repeat`` seeds one after another; report median and IQR."""
    runs = []
    for i in range(args.repeat):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        t0 = time.perf_counter()
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=600)
        wall = time.perf_counter() - t0
        result = json.loads(out.stdout.splitlines()[-1])
        runs.append(result)
        print(f"seed {args.seed + i} ({wall:.1f} s, {result['failed']} failed): " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            file=sys.stderr)
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                         "iqr_frac": (q3 - q1) / abs(med) if med else None}
        print(f"{name:42s} {med:12.6g} {first['unit']:10s} IQR/median "
              f"{summary[name]['iqr_frac']:.4f}")
    print(json.dumps({
        "workload": args.workload, "runs": len(runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "metrics": summary,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many seeds and report median and IQR")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for smoke tests")
    parser.add_argument("--spans", default=None,
                        help="where --trace 1 writes its spans (JSON lines)")
    args = parser.parse_args(argv)
    if args.repeat:
        if args.repeat < 2:
            parser.error("--repeat needs at least 2 runs")
        return repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
