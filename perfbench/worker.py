"""The workload process: set up, then run the operations in a closed loop.

Started by run.py, one process per workload.  Set-up is importing numpy
and apwords and writing the seeded input files; the monotonic clock reading
at its end is what the parent subtracts its spawn time from.  Then one
client on one thread calls `apwords.cli.main(argv)` for each operation in
turn, stdout and stderr captured, pass after pass, until the run has lasted
`--seconds` and holds at least MIN_OPS operations.

The first pass saves each operation's stdout for the parent to check; later
passes keep only its sha256.  With --trace 1 the passes alternate between
untraced (even) and traced by `spans.Tracer` (odd), so both see the same
stretches of machine time.

Before each operation, outside its timing, a fixed calibration loop is
timed (`calibrate`), and once right after set-up; run.py scales the run's
times by how fast the CPU ran it, since the speed of a shared virtual CPU
drifts from run to run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import apwords  # noqa: E402
import apwords.cli  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100
STDERR_KEPT = 2000  # characters of stderr kept per operation of the first pass
CALIBRATION_SAMPLES = 3  # per operation


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes now (about 1.5 ms)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i
    return time.perf_counter() - t0


def run_op(argv):
    out, err = io.StringIO(), io.StringIO()
    main = apwords.cli.main  # looked up per call, so a traced run sees the wrapper
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # the program crashed: record it as this op's failure
            code = None
            err.write(traceback.format_exc())
    t1 = time.perf_counter()
    return t1 - t0, code, out.getvalue(), err.getvalue()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True, help="relative to the repository root")
    p.add_argument("--probe", action="store_true",
                   help="set up, print the clock and a calibration time, exit")
    args = p.parse_args(argv)

    os.chdir(ROOT)
    wl = workloads.build(args.workload, args.seed, args.workdir)
    outdir = Path(args.workdir, workloads.OUTPUT_DIR)
    outdir.mkdir(parents=True, exist_ok=True)
    for path, content in wl.files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(content, encoding="utf-8")
    ready = time.monotonic()
    # The CPU speed at set-up time, measured in this process.
    setup_calibration = sorted(calibrate() for _ in range(5))[2]
    if args.probe:
        print(repr(ready), repr(setup_calibration))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    passes = []
    stderr = []
    calibration = []
    start = time.perf_counter()
    while True:
        n = len(passes)
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.install()
        records = []
        for i, op in enumerate(wl.ops):
            if traced:
                tracer.op = f"{n}:{i}"
            calibration += [calibrate() for _ in range(CALIBRATION_SAMPLES)]
            latency, code, out, err = run_op(op.argv)
            data = out.encode("utf-8")
            if n == 0:
                (outdir / f"op{i}.out").write_bytes(data)
                stderr.append(err[:STDERR_KEPT])
            records.append([latency, code, hashlib.sha256(data).hexdigest(), len(data)])
        if traced:
            tracer.uninstall()
        passes.append({"traced": traced, "ops": records})
        attempted = len(passes) * len(wl.ops)
        if args.trace and len(passes) < 2:
            continue
        if time.perf_counter() - start >= args.seconds and attempted >= MIN_OPS:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(Path(args.workdir, "spans.jsonl"))

    result = {
        "ready": ready,
        "setup_calibration_s": setup_calibration,
        "peak_rss_kb": peak_rss_kb,
        "numba_enabled": bool(apwords.NUMBA_ENABLED),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "stderr": stderr,
        "calibration_s": calibration,
        "passes": passes,
    }
    Path(args.workdir, "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
