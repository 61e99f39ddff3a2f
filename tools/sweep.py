"""State-count sweep of the ngclab command line, one fresh process per point.

Each point writes one program over `vars x, y, z mod m` (n = m^3 states): the
countdown `while x != 0 { x := x - 1 }` (default); `diverge` with
`--program diverge`, where every state may diverge and no state terminates;
the permutation `x := x + 1` with `--program increment`; the function of
every variable `x := x + y + z + 1` with `--program full`; or, with
`--program branch` and `--program choice`, an assignment beside `diverge` in
an `if` and a `[]` of assignments before `diverge`, whose relations are nearly
empty.  Each row of the increment's relation, and of full's, is an int with
one bit somewhere in 0..n-1, so the rows take about n^2/16 bytes (1 GB at
n = 125 000): their default sweep stops at m = 40 (n = 64 000).  It runs, in
a new interpreter,

    transform --kind dwp --pred "x = 0"                       (default)
    check --logic dwp-lb --pre "true" --post "x = 0"          (--command check)

`--engine inductive` or `--engine both` is passed on to `transform`, whose
default engine is the oracle.

It prints one row per point: n, wall time, peak RSS of the child, its exit
code and the first 12 hex digits of the SHA-256 of its standard output.  An
exit code of 1 is an answer (`check`: the triple is invalid), so the sweep
goes on past it; it stops after the first point that exits with any other
non-zero code (2 or more: an error or the budget; or a signal) or takes
longer than LIMIT_S (60) seconds.  A point still running after ten times
that is killed.  Standard library only; Linux (peak RSS comes from wait4).

    python3 tools/sweep.py
    python3 tools/sweep.py --command check
    python3 tools/sweep.py --program diverge
    python3 tools/sweep.py --program increment
    python3 tools/sweep.py --program full
    python3 tools/sweep.py --engine both            # the engines cross-checked
    python3 tools/sweep.py --program branch
    python3 tools/sweep.py --moduli 101            # a single point
    python3 tools/sweep.py --src ../other/src      # another checkout's ngclab
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

LIMIT_S = 60.0
MODULI = (3, 6, 10, 14, 20, 25, 32, 40, 50, 58, 64, 72, 80, 90, 101)
PROGRAMS = {
    "countdown": "while x != 0 { x := x - 1 }",
    "diverge": "diverge",
    "increment": "x := x + 1",
    "full": "x := x + y + z + 1",
    "branch": "if x = 0 { y := y + 1 } else { diverge }",
    "choice": "{ x := x + 1 } [] { skip } ; diverge",
}
SPREAD_MODULI = tuple(m for m in MODULI if m <= 40)    # memory, see above
SPREAD = ("increment", "full")
COMMANDS = {
    "transform": ["transform", "--kind", "dwp", "--pred", "x = 0"],
    "check": ["check", "--logic", "dwp-lb", "--pre", "true", "--post", "x = 0"],
}


def run_point(src: Path, argv: list[str], hard_s: float) -> tuple[float, float, int, str, str]:
    """(wall s, peak RSS MB, exit code, stdout digest, first stderr line)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ngclab.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(hard_s, proc.kill)
        killer.start()
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
        proc.stdout.close()
        err.seek(0)
        first = err.read().decode(errors="replace").partition("\n")[0]
    digest = hashlib.sha256(out).hexdigest()[:12]
    return wall, usage.ru_maxrss / 1024, proc.returncode, digest, first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--command", choices=sorted(COMMANDS), default="transform")
    parser.add_argument("--program", choices=sorted(PROGRAMS), default="countdown")
    parser.add_argument("--engine", choices=["oracle", "inductive", "both"], default="oracle",
                        help="transform's engine")
    parser.add_argument("--moduli", type=lambda s: [int(m) for m in s.split(",")],
                        help="comma-separated moduli m (n = m^3); default "
                             + ",".join(map(str, MODULI)) + ", and "
                             + ",".join(map(str, SPREAD_MODULI)) + " for "
                             + " and ".join(SPREAD))
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the ngclab package to run")
    args = parser.parse_args(argv)
    if args.engine != "oracle" and args.command != "transform":
        parser.error("--engine applies to the transform command only")
    if args.moduli is None:
        args.moduli = SPREAD_MODULI if args.program in SPREAD else MODULI
    command = COMMANDS[args.command]
    if args.engine != "oracle":
        command = command + ["--engine", args.engine]
    print(f"{'n':>9}  {'wall_s':>8}  {'peak_rss_mb':>11}  exit  stdout_sha256")
    with tempfile.TemporaryDirectory() as tmp:
        for m in args.moduli:
            path = Path(tmp) / f"{args.program}_{m}.ngcl"
            path.write_text(f"vars x, y, z mod {m}\n{PROGRAMS[args.program]}\n")
            wall, rss, code, digest, err = run_point(
                args.src.resolve(), command + [str(path)], 10 * LIMIT_S)
            note = f"  {err}" if code else ""
            print(f"{m ** 3:>9}  {wall:>8.2f}  {rss:>11.0f}  {code:>4}  {digest}{note}",
                  flush=True)
            if code not in (0, 1) or wall > LIMIT_S:
                break
    return 0


if __name__ == "__main__":
    sys.exit(main())
