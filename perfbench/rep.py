"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD --seed N --spawned T --out FILE
                             [--trace --spans FILE] [--quick] [--corrupt]

`--spawned` is the parent's time.monotonic() just before starting this
process, so setup time covers interpreter start, `import ngclab` and building
the inputs.  Every duration is recorded raw (`raw_s`) and scaled to the
reference machine speed (`seconds`, see speed.py).  The result, one JSON
object, goes to `--out`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import resource
import shutil
import signal
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class ItemTimeout(BaseException):
    """Raised by the per-item alarm; a BaseException so no library handler
    swallows it."""


def _alarm(signum, frame):
    raise ItemTimeout()


def import_ngclab() -> types.SimpleNamespace:
    if not (SRC / "ngclab" / "__init__.py").is_file():
        raise SystemExit(f"error: no ngclab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ngclab

    if Path(ngclab.__file__).resolve().parent != (SRC / "ngclab").resolve():
        raise SystemExit(f"error: imported ngclab from {ngclab.__file__}, not {SRC}")
    modules = {info.name: importlib.import_module(f"ngclab.{info.name}")
               for info in pkgutil.iter_modules(ngclab.__path__)}
    return types.SimpleNamespace(**modules)


def run_items(items, cap_s: float, tracer, gauge) -> list[dict]:
    records = []
    for index, item in enumerate(items):
        if item.before is not None:
            item.before()
        if tracer is not None:
            tracer.item = index
        error = None
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        start = time.perf_counter()
        try:
            out = item.run()
        except ItemTimeout:
            error = f"exceeded the {cap_s:g} s item cap"
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - any failure counts
            error = f"{type(exc).__name__}: {exc}"
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        work = 0.0
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            try:
                error = item.check(out)
                work = float(item.work(out))
            except Exception as exc:  # noqa: BLE001 - a crashing check is a failure
                error = f"check raised {type(exc).__name__}: {exc}"
        record = {"label": item.label, "group": item.group, "size": item.size,
                  "raw_s": end - start, "work": work, "error": error}
        gauge.add(record)
        if tracer is not None:
            tracer.enabled = True
        records.append(record)
    gauge.flush()
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    import speed

    gauge = speed.SpeedGauge()
    ng = import_ngclab()
    import tracer as tracing
    import workloads

    setup_fn, cap_s = workloads.WORKLOADS[args.workload]
    caches = tracing.find_caches()
    tracer = tracing.Tracer(caches) if args.trace else None
    boundaries = tracer.install() if tracer is not None else []

    def clear_caches():
        if tracer is not None:
            tracer.snapshot_caches()
        for cache in caches.values():
            cache.cache_clear()

    workdir = Path(args.out).with_suffix(".work")
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        ctx = workloads.Context(ng, args.seed, args.quick, args.corrupt, workdir,
                                clear_caches, workloads.load_expected())
        items, probes = setup_fn(ctx)
        setup = {"raw_s": time.monotonic() - args.spawned}
        gauge.add(setup)
        gauge.flush()
        records = run_items(items, cap_s, tracer, gauge)
        if tracer is not None:
            tracer.enabled = False
        probe_records = run_items(probes, cap_s, None, gauge)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup["seconds"],
        "setup_raw_s": setup["raw_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": records,
        "probes": probe_records,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["trace"]["boundary_names"] = boundaries
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
