"""Benchmark entry point for ngclab.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --all [--seconds S]     # every workload, untraced
    python3 perfbench/run.py --selfcheck             # fast check of the benchmark

Run from the repository root.  Each repetition is a fresh interpreter
(perfbench/rep.py), so ngclab's lru_caches start cold as they do for every
command-line invocation; repetitions run one after another, with no threads or
pools, until --seconds have passed (at least MIN_REPS).  End-to-end metrics
are medians over repetitions of an untraced run.  With --trace 1 the run makes
one untraced and one traced repetition on the same inputs and reports the
per-layer metrics of the traced one, plus the tracing overhead.  The last
line of standard output is one JSON object; the lines before it repeat the
metrics for people, with the tail percentile, item counts and failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("agreement", "survey", "search", "scale")
DEFAULT_SEED = 1357        # unlike the test suite's 2025/2026
MIN_REPS = 3
RUN_LIMIT_S = 175.0


class BenchmarkError(Exception):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_rep(workload: str, seed: int, *, trace=False, quick=False, corrupt=False,
            deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-{seed}-{os.getpid()}"
    out = OUT / f"rep-{tag}.json"
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "rep.py"), workload, "--seed", str(seed),
           "--spawned", repr(spawned), "--out", str(out)]
    if trace:
        cmd += ["--trace", "--spans", str(OUT / f"spans-{workload}.txt")]
    if quick:
        cmd.append("--quick")
    if corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} repetition ran past the {RUN_LIMIT_S:g} s limit")
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} repetition exited {proc.returncode}:\n"
                             f"{proc.stderr.strip()}")
    try:
        with open(out, encoding="utf-8") as fh:
            rep = json.load(fh)
    finally:
        out.unlink(missing_ok=True)
    rep["elapsed_s"] = time.monotonic() - spawned
    return rep


# --- per-repetition figures ----------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, and its rank."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) on log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


def figures(reps: list[dict]) -> dict:
    """End-to-end figures of repetitions on identical inputs.  Timings are
    taken item by item: each item's median time over the repetitions, so a
    few seconds of unusual machine speed move one sample per item rather than
    the whole result.  wall_s is the sum of those medians, the repetition's
    wall time with the checking between items left out."""
    labels = [i["label"] for i in reps[0]["items"]]
    if any([i["label"] for i in r["items"]] != labels for r in reps):
        raise BenchmarkError("repetitions ran different items")
    per_item = list(zip(*([i["seconds"] for i in r["items"]] for r in reps)))
    times = [statistics.median(t) for t in per_item]
    items = reps[0]["items"]
    wall = sum(times)
    tail_ms, rank = tail([t * 1000 for t in times])

    def exponent(group: str) -> float:
        points = [(i["size"], t) for i, t in zip(items, times) if i["group"] == group]
        return slope(points) if len(points) > 1 else 0.0

    raw = [sum(i["raw_s"] for i in r["items"]) for r in reps]
    scaled = [sum(i["seconds"] for i in r["items"]) for r in reps]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "raw_wall_s": statistics.median(raw),
        "speed_factor": statistics.median(s / r for s, r in zip(scaled, raw)),
        "wall_s": wall,
        "item_ms_p50": statistics.median(times) * 1000,
        "item_ms_tail": tail_ms,
        "work_per_s": sum(i["work"] for i in items) / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "states_exponent": exponent("states-oracle"),
        "length_exponent": exponent("length"),
        "tail_rank": rank,
    }


def failures(reps: list[dict]) -> tuple[int, int, int, int]:
    """(items attempted, items failed, probes attempted, probes failed)."""
    items = [i for r in reps for i in r["items"]]
    probes = [p for r in reps for p in r["probes"]]
    return (len(items), sum(1 for i in items if i["error"]),
            len(probes), sum(1 for p in probes if p["error"]))


# --- per-layer figures from a traced repetition ---------------------------------

def layer_figures(trace: dict, speed_factor: float) -> dict:
    out = {}
    for name, entry in trace["boundaries"].items():
        out[f"{name}.self_s"] = entry["self_s"] * speed_factor
        out[f"{name}.calls"] = entry["calls"]
    out.update(trace["counters"])
    for name, ratio in trace["cache_hit_ratio"].items():
        named = name in ("semantics.profile", "syntax.guard_to_predicate")
        out[f"{name}.hit_ratio" if named else f"cache.{name}.hit_ratio"] = ratio
    misses = trace["profile_misses"]
    out["semantics.profile.distinct_frac"] = trace["profile_distinct"] / misses if misses else 0.0
    return out


# --- one workload --------------------------------------------------------------

def failure_lines(reps: list[dict]) -> list[str]:
    lines = []
    for rep in reps:
        for record in rep["items"]:
            if record["error"]:
                lines.append(f"  FAILED {record['label']}: {record['error']}")
    return lines[:20]


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
            quick=False, corrupt=False) -> tuple[dict, list[str], dict]:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    reps = []
    kw = {"quick": quick, "corrupt": corrupt, "deadline": deadline}
    if trace:
        reps.append(run_rep(workload, seed, **kw))
        traced = run_rep(workload, seed, trace=True, **kw)
    else:
        while True:
            reps.append(run_rep(workload, seed, **kw))
            elapsed = time.monotonic() - started
            typical = statistics.median(r["elapsed_s"] for r in reps)
            if len(reps) >= MIN_REPS and elapsed + typical > seconds:
                break
    attempted, failed, probes, probe_failures = failures(reps)
    lines = [f"workload {workload}  seed {seed}  repetitions {len(reps)}"
             f"  items/repetition {len(reps[0]['items'])}  trace {int(trace)}"]
    lines += failure_lines(reps)
    lines.append(f"  failed_frac {(failed + probe_failures) / (attempted + probes):.4f}"
                 f" ({failed} of {attempted} items failed;"
                 f" {probe_failures} of {probes} known-defect probes failed)")
    for probe in reps[0]["probes"]:
        lines.append(f"  probe {probe['label']}: {probe['error'] or 'ok'}")
    values = figures(reps)
    values["known_defects"] = probe_failures / len(reps)
    if trace:
        traced_values = figures([traced])
        layers = layer_figures(traced["trace"], traced_values["speed_factor"])
        layers["trace.overhead_frac"] = ((traced_values["wall_s"] - values["wall_s"])
                                         / values["wall_s"])
        for key in ("states_exponent", "length_exponent", "known_defects"):
            layers[key] = values[key]
        more = failures([traced])
        attempted += more[0]
        failed += more[1]
        lines += failure_lines([traced])
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"layers": layers, "trace": traced["trace"]}, fh, indent=1)
        wanted = spec["per_layer"]
        listed = {m["name"] for m in wanted}
        for name in sorted(k for k in layers if k not in listed and k.startswith("cache.")):
            lines.append(f"  {name:<44} {layers[name]:.6g}  (cache not listed in BENCHMARK.json)")
    else:
        layers = values
        wanted = spec["end_to_end"]
        lines.append(f"  item_ms_tail is p{values['tail_rank']:.2f}"
                     f" of {len(reps[0]['items'])} items per repetition")
        lines.append(f"  times are at reference speed; unscaled wall {values['raw_wall_s']:.4f} s,"
                     f" scale factor {values['speed_factor']:.3f}")
        for key in ("states_exponent", "length_exponent"):
            if values[key]:
                lines.append(f"  {key:<44} {values[key]:.4f}")
    metrics = {}
    for metric in wanted:
        # a layer the workload never enters, or a name gone at this commit, reads 0
        value = layers.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        lines.append(f"  {metric['name']:<44} {value:.6g} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    found = set()
    if trace:
        found = set(traced["trace"]["boundary_names"]) | set(traced["trace"]["cache_hit_ratio"])
    return result, lines, {"nonzero": {k for k, v in layers.items() if v}, "found": found}


# --- self-check ----------------------------------------------------------------

def selfcheck(spec: dict) -> int:
    """Each workload on a handful of items, untraced and traced: no failures,
    every metric printed with its unit, every end-to-end metric nonzero, every
    boundary and cache a per-layer metric names found by the tracer, and a
    planted wrong answer counted as a failure."""
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result, lines, info = measure(workload, DEFAULT_SEED, 0, trace, spec, quick=True)
            printed = {tuple(line.split()[::2]) for line in lines}
            for metric in spec["per_layer" if trace else "end_to_end"]:
                name = metric["name"]
                if (name, metric["unit"]) not in printed:
                    problems.append(f"{workload}: {name} not printed with its unit")
                if not trace and name not in info["nonzero"]:
                    problems.append(f"{workload}: {name} is zero")
                base, _, field = name.removeprefix("cache.").rpartition(".")
                if trace and field in ("self_s", "calls", "hit_ratio") and base not in info["found"]:
                    problems.append(f"{workload}: the tracer found no {base}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: {result['failed']} failures on the quick run")
        planted, _, _ = measure(workload, DEFAULT_SEED, 0, False, spec, quick=True,
                                corrupt=True)
        if planted["correct"] or planted["failed"] < 1:
            problems.append(f"{workload}: a planted wrong answer was not counted as failed")
    for problem in problems:
        print(f"  {problem}")
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ngclab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ngclab" / "__init__.py").is_file():
        print(f"error: no ngclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        if args.selfcheck:
            return selfcheck(spec)
        if args.all:
            summary = {}
            for workload in WORKLOADS:
                result, lines, _ = measure(workload, args.seed, seconds, bool(args.trace),
                                           spec)
                print("\n".join(lines), flush=True)
                summary[workload] = result
            print(json.dumps(summary))
            return 0
        if args.workload is None:
            parser.error("give --workload, --all or --selfcheck")
        result, lines, _ = measure(args.workload, args.seed, seconds, bool(args.trace), spec)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
