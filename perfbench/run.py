"""apwords benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Workloads: recurrence, scan, transduce (see workloads.py and README.md);
`--workload all` runs the three one after another, each in its own process.

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run, and the lines before it give the tracing overhead.  A report
(one record per operation) and, when traced, the spans are written under
perfbench/out/.  The exit code is 0 when the run completed, whether or not
outputs were wrong (that is what "correct" and "failed" say), and nonzero
when no result could be produced.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = "perfbench/out"  # relative to ROOT
SETUP_PROBES = 4  # extra processes that only set up; set-up time is the median
WORKER_TIMEOUT = 150
# What worker.calibrate() takes on a CPU running at the reference speed.
# Time metrics are reported as if the run had had that speed: raw time x
# (this / the run's median calibration time).
CALIBRATION_REFERENCE_S = 1.5e-3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class RunError(Exception):
    pass


def _worker(args, workdir, *extra, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir, *extra]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise RunError(f"workload process exceeded {timeout} s") from e
    if proc.returncode != 0:
        raise RunError(f"workload process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return t0, proc.stdout


def check_outputs(wl, workdir, result):
    """Check the first pass's outputs; every later run of an operation must
    repeat the checked output's digest and exit code.  Returns a failed
    flag per operation run (pass-major) and the problems found."""
    ctx = checks.Context(wl.ops)
    first = result["passes"][0]["ops"]
    wrong, problems = [], []
    for i, op in enumerate(wl.ops):
        out = (ROOT / workdir / workloads.OUTPUT_DIR / f"op{i}.out").read_text("utf-8")
        code = first[i][1]
        found = checks.check(op, out, code, ctx)
        if code is None:
            found.append(result["stderr"][i].strip().splitlines()[-1])
        wrong.append(bool(found))
        problems += [f"op {i} ({' '.join(op.argv)[:80]}): {p}" for p in found]
    failed = []
    for p, record in enumerate(result["passes"]):
        for i, (_, code, digest, _) in enumerate(record["ops"]):
            repeat_ok = code == first[i][1] and digest == first[i][2]
            if not repeat_ok:
                problems.append(f"op {i} pass {p}: output or exit code differs from pass 0")
            failed.append(wrong[i] or not repeat_ok)
    return failed, problems


def pass_wall(passes):
    """Wall time of one pass: each operation's median latency over the
    passes, summed.  A stretch of slow machine that covers a minority of an
    operation's runs then does not move it."""
    per_op = zip(*(p["ops"] for p in passes))
    return sum(statistics.median(r[0] for r in runs) for runs in per_op)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(args):
    workdir = f"{OUT}/{args.workload}"
    shutil.rmtree(ROOT / workdir, ignore_errors=True)
    setups = []  # (seconds, calibration time in that process)
    for _ in range(SETUP_PROBES):
        t0, stdout = _worker(args, workdir, "--probe", timeout=60)
        ready, calibration = map(float, stdout.split()[-2:])
        setups.append((ready - t0, calibration))
    t0, _ = _worker(args, workdir, timeout=WORKER_TIMEOUT)
    result = json.loads((ROOT / workdir / "result.json").read_text("utf-8"))
    setups.append((result["ready"] - t0, result["setup_calibration_s"]))

    wl = workloads.build(args.workload, args.seed, workdir)
    t_check = time.perf_counter()
    failed, problems = check_outputs(wl, workdir, result)
    check_s = time.perf_counter() - t_check
    shutil.rmtree(ROOT / workdir / workloads.OUTPUT_DIR)
    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    latencies = [r[0] for p in plain for r in p["ops"]]
    raw = {
        "setup_s": statistics.median(t for t, _ in setups),
        "wall_s": pass_wall(plain),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * percentile(latencies, 90),
    }
    speed = CALIBRATION_REFERENCE_S / statistics.median(result["calibration_s"])
    e2e = {name: value * speed for name, value in raw.items()}
    # Each set-up is scaled by the speed its own process measured.
    e2e["setup_s"] = statistics.median(t * CALIBRATION_REFERENCE_S / c for t, c in setups)
    e2e["peak_rss_mb"] = result["peak_rss_kb"] / 1024

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": "numba" if result["numba_enabled"] else "numpy/python fallback",
        "numba_enabled": result["numba_enabled"],
        "python": result["python"],
        "numpy": result["numpy"],
        "setup_samples_s": [t for t, _ in setups],
        "setup_calibration_s": [c for _, c in setups],
        "check_s": check_s,
        "cpu_speed": speed,
        "end_to_end": e2e,
        "end_to_end_unscaled": raw,
        "attempted": len(failed),
        "failed": sum(failed),
        "problems": problems[:50],
        "ops": [
            {"pass": p, "index": i, "verb": op.verb, "size": op.size, "exit_code": r[1],
             "latency_ms": 1e3 * r[0], "stdout_sha256": r[2], "traced": rec["traced"]}
            for p, rec in enumerate(passes)
            for i, (op, r) in enumerate(zip(wl.ops, rec["ops"]))
        ],
    }
    lines = [f"workload {args.workload}  seed {args.seed}  backend {report['backend']}  "
             f"python {result['python']}  numpy {result['numpy']}",
             f"passes {len(passes)} x {len(wl.ops)} operations  "
             f"attempted {len(failed)}  failed {sum(failed)}  (checks took {check_s:.1f} s)"]
    lines += [f"  problem: {p}" for p in problems[:10]]
    if args.trace:
        traced = [n for n, p in enumerate(passes) if p["traced"]]
        all_spans = spans.read(ROOT / workdir / "spans.jsonl")
        per_pass = [
            spans.layer_metrics(all_spans, n, sum(r[3] for r in passes[n]["ops"]))
            for n in traced
        ]
        layer = {name: statistics.median(m[name] for m in per_pass) for name in spans.PER_LAYER}
        traced_wall = pass_wall([passes[n] for n in traced])
        overhead = traced_wall - raw["wall_s"]
        report["per_layer"] = layer
        report["tracing"] = {"untraced_wall_s": raw["wall_s"], "traced_wall_s": traced_wall,
                             "overhead_s": overhead, "spans": len(all_spans)}
        metrics = {n: {"value": v, "unit": spans.PER_LAYER[n][0]} for n, v in layer.items()}
        lines += [f"  {n:<30} {v:>16.6g} {spans.PER_LAYER[n][0]}" for n, v in layer.items()]
        lines.append(f"tracing overhead {overhead:.3f} s per pass "
                     f"({traced_wall:.3f} s traced, {raw['wall_s']:.3f} s untraced, "
                     f"{len(all_spans)} spans)")
    else:
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in e2e.items()}
        lines.append(f"  CPU speed {speed:.3f} of the reference; unscaled times in brackets")
        lines += [f"  {n:<12} {v:>12.4f} {END_TO_END[n]}"
                  + (f"  ({raw[n]:.4f})" if n in raw else "") for n, v in e2e.items()]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (ROOT / OUT / name).write_text(json.dumps(report, indent=1), encoding="utf-8")
    lines.append(f"report: {OUT}/{name}")
    return lines, {
        "correct": not any(problems),
        "attempted": len(failed),
        "failed": sum(failed),
        "metrics": metrics,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description="apwords benchmark")
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "apwords" / "cli.py").is_file():
        print(f"error: no apwords sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        args.workload = name
        try:
            lines, result = run_workload(args)
        except RunError as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        if len(names) == 1:
            summary = result
            break
        print(json.dumps(result))
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
