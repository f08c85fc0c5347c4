"""Benchmark for taxidma: the export, ingest and stats workloads.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py [--workload export|ingest|stats] [--seed N]
                             [--seconds 30] [--trace 0|1]

Without ``--workload`` it runs all three and exits 1 if any output check
fails.  With one, the last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``.  A run measures for RUN_SECONDS, which is ``run_seconds`` in
BENCHMARK.json; ``--seconds`` is accepted only with that value, because the
bounds are set for runs of that length.

Inputs are generated here from the seed, with the checkout's ``src/`` on the
path; each measurement runs in a fresh interpreter (``child.py``) that gets
only the generated inputs.  Everything the run writes goes to a temporary
directory under ``.perfbench_work/`` in the checkout and is removed at exit.
See NOTES.md for why each workload and metric exists.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("export", "ingest", "stats")
EXPORT_RECORDS = 500
INGEST_BUNDLES = 500
# Ten corpora of 10 to 55 records; twelve queries each.
STATS_CORPUS_SIZES = tuple(range(10, 56, 5))
# Measuring interpreters per run, one after the other.  Each sets up once,
# and setup_s is the median of their set-up times.
SEGMENTS = 12
CHILD_TIMEOUT_S = 150
# Measuring time of one run; equal to run_seconds in BENCHMARK.json.
RUN_SECONDS = 30

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"calls_per_op": "count", "self_us": "us", "s": "s",
            "residue_per_op": "count"}.get(suffix, "ratio")


def import_package(pycache: Path) -> None:
    """Import the checkout's taxidma, sharing the children's bytecode
    cache."""
    sys.pycache_prefix = str(pycache)
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    import taxidma
    if Path(taxidma.__file__).resolve().parent != SRC / "taxidma":
        raise SystemExit(f"error: imported taxidma from {taxidma.__file__}, "
                         f"not from {SRC}")


def make_spec(workload: str, seed: int) -> dict:
    import gen
    from taxidma import load_bundled_catalog
    catalog = load_bundled_catalog()
    pools = gen.code_pools(catalog)
    spec = {"workload": workload, "seed": seed}
    if workload == "export":
        spec["texts"], spec["invalid"] = gen.export_inputs(
            pools, seed, EXPORT_RECORDS)
    elif workload == "ingest":
        spec["bundles"] = gen.ingest_inputs(catalog, pools, seed,
                                            INGEST_BUNDLES)
    else:
        spec["corpora"] = gen.stats_inputs(pools, seed, STATS_CORPUS_SIZES)
    return spec


def run_child(work: Path, spec_path: Path, mode: str, tag: str,
              seconds: float = 0.0) -> dict:
    corpus = work / f"corpus-{tag}"
    result_path = work / f"result-{tag}.json"
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, "-X", f"pycache_prefix={work / 'pycache'}",
               str(HERE / "child.py"), str(spec_path), mode, str(corpus),
               str(result_path), repr(seconds)]
    subprocess.run(command, env=env, check=True, timeout=CHILD_TIMEOUT_S,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(corpus, ignore_errors=True)
    return result


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 work: Path) -> tuple[dict, str]:
    """One workload's result line and a note of its sample counts."""
    spec_path = work / f"{workload}.spec.json"
    spec_path.write_text(json.dumps(make_spec(workload, seed)),
                         encoding="utf-8")
    # Fills the bytecode cache with every module a child imports, so that
    # set-up times the program and not the compiler.
    warm = run_child(work, spec_path, "setup", "warm")
    if trace:
        main = run_child(work, spec_path, "trace", "main", seconds)
        children, attempted = [warm, main], main["ops"]
        metrics = main["layers"]
        units = {name: layer_unit(name) for name in metrics}
        samples = f"{main['ops']} operations, one pass of them traced"
    else:
        # The machine this was tuned on drifts in speed over seconds, and
        # its cost of creating files (most of stats' set-up) swings 2-5x
        # in phases of 5-15 s.  Twelve interpreters spread over the run
        # sample set-up across those phases, where set-ups back to back
        # land in one or two.  Segment n ends at (n + 1) / SEGMENTS of
        # the run, so set-up time and a pass that overruns come out of the
        # next segment's share.
        start = time.perf_counter()
        segments = []
        for n in range(SEGMENTS):
            end = start + (n + 1) * seconds / SEGMENTS
            segments.append(run_child(
                work, spec_path, "measure", f"measure{n}",
                max(0.0, end - time.perf_counter())))
        children = [warm, *segments]
        attempted = sum(child["ops"] for child in segments)
        latencies = [ms for child in segments
                     for one_pass in child["latencies_ms"] for ms in one_pass]
        pass_rps = [rps for child in segments for rps in child["pass_rps"]]
        setup_times = [child["setup_s"] for child in segments]
        cuts = statistics.quantiles(latencies, n=10, method="inclusive")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "throughput_rps": statistics.median(pass_rps),
            "latency_p50_ms": cuts[4],
            "latency_p90_ms": cuts[8],
            "peak_rss_mb": statistics.median(
                child["peak_rss_mb"] for child in segments),
        }
        units = END_TO_END_UNITS
        samples = (f"{len(setup_times)} set-ups, {len(pass_rps)} passes, "
                   f"{len(latencies)} latencies")
    errors = [error for child in children
              for error in child["errors"] + child["check_errors"]]
    for error in errors:
        print(f"{workload}: check failed: {error}", file=sys.stderr)
    # Per-operation failures, plus one for each whole-run check that failed.
    failed = sum(child["failed"] + len(child["check_errors"])
                 for child in children)
    if not trace:
        metrics["ok_ratio"] = max(0.0, 1 - failed / attempted)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    return result, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS,
                        help=f"only {RUN_SECONDS} is accepted")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "taxidma" / "__init__.py").is_file():
        print(f"error: no taxidma sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    if args.seconds != RUN_SECONDS:
        print(f"error: --seconds must be {RUN_SECONDS}; the bounds hold only "
              "for runs of that length", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        import_package(work / "pycache")
        names = [args.workload] if args.workload else list(WORKLOADS)
        runs = {name: run_workload(name, args.seed, RUN_SECONDS,
                                   bool(args.trace), work)
                for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    results = {name: result for name, (result, _) in runs.items()}
    for name, (result, samples) in runs.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:7s} {metric:42s} {entry['value']:14.6f} "
                  f"{entry['unit']}")
        print(f"{name:7s} attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']}")
        print(f"{name:7s} samples: {samples}")
    if args.workload:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry
                        for name, result in results.items()
                        for metric, entry in result["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
