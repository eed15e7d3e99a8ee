#!/usr/bin/env python3
"""steelnav benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload nav-dense --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports steelnav from ``src/``.
Each call is one fresh process (``bench/worker.py``) that generates the
inputs from the seed and runs the pipeline through ``steelnav.cli``.  Calls
repeat until the next one would end after ``--seconds`` (at least four
calls).  Outputs are checked outside the timed region; a call whose exit
code, outputs or artifact hashes are wrong counts as failed.

With ``--trace 0`` every call is untraced and the end-to-end metrics of
BENCHMARK.json are reported.  With ``--trace 1`` every second call
runs with spans around each layer's public functions (``bench/tracer.py``);
the per-layer metrics are reported, and the tracing overhead is the median
traced minus the median untraced ``wall_s``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_CALLS = 4
RUN_LIMIT_S = 150  # no call may run past this, whatever --seconds
# One BLAS thread: EM works on 2x2 blocks, and a fixed count keeps runs
# comparable across machines.
BLAS_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}
# Printed beside the end-to-end metrics of BENCHMARK.json, but not in the
# JSON line: each is 0 or undefined on some workload.
PRINTED_ONLY = (("run_fail_frac", "ratio"), ("edge_fail_frac", "ratio"),
                ("seg_ari", "ratio"), ("route_ratio", "ratio"))


def run_call(workload, seed, call_dir: Path, traced: bool, timeout: float):
    """One worker process; returns (result, None) or (None, problem)."""
    call_dir.mkdir()
    result_path = call_dir / "result.json"
    argv = [sys.executable, str(BENCH / "worker.py"), "--src", str(SRC),
            "--workload", workload, "--seed", str(seed), "--dir", str(call_dir),
            "--result", str(result_path), "--trace", str(int(traced))]
    t_spawn = time.monotonic()
    try:
        with open(call_dir / "stdout.txt", "wb") as out, \
                open(call_dir / "stderr.txt", "wb") as err:
            proc = subprocess.run(argv, stdout=out, stderr=err, timeout=timeout,
                                  env={**os.environ, **BLAS_ENV})
    except subprocess.TimeoutExpired:
        return None, f"call timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not result_path.is_file():
        tail = (call_dir / "stderr.txt").read_text(errors="replace").strip()[-500:]
        return None, f"worker exited {proc.returncode}: {tail}"
    r = json.loads(result_path.read_text())
    r["setup_s"] = r["t_setup"] - t_spawn
    r["wall_s"] = r["t_end"] - r["t_setup"]
    return r, None


def measure(args, w, run_dir: Path):
    """Repeat calls for --seconds; return the per-call records and the reference."""
    import checks
    from tracer import EXACT_COUNTS

    start = time.monotonic()
    calls = []
    ref = None  # first completed call: artifact hashes, problems, quality
    exact_ref = None
    longest = 0.0
    while True:
        t0 = time.monotonic()
        traced = bool(args.trace) and len(calls) % 2 == 1
        call_dir = run_dir / f"call{len(calls)}"
        r, err = run_call(args.workload, args.seed, call_dir, traced,
                          timeout=max(RUN_LIMIT_S - (t0 - start), 1.0))
        problems = [err] if err else []
        if r is not None:
            if r["exit_code"] != w["exit_code"]:
                problems.append(f"exit code {r['exit_code']}, expected {w['exit_code']}")
            hashes = checks.artifact_hashes(call_dir / "out")
            if ref is None:
                try:
                    found, quality = checks.CHECKS[w["command"]](call_dir, r["exit_code"])
                except Exception as exc:  # a crash in a check is a failed call
                    found, quality = [f"output check raised {exc!r}"], {}
                ref = {"hashes": hashes, "problems": found, "quality": quality}
            elif hashes != ref["hashes"]:
                problems.append("artifacts differ from the first call of this run")
            problems += ref["problems"]
            if traced:
                problems += [f"not restored: {a}" for a in r["restore_failures"]]
                counts = {k: r["layers"][k] for k in EXACT_COUNTS}
                if exact_ref is None:
                    exact_ref = counts
                elif counts != exact_ref:
                    problems.append(f"counts differ between traced calls: "
                                    f"{counts} vs {exact_ref}")
        shutil.rmtree(call_dir, ignore_errors=True)
        calls.append({"result": r, "problems": problems, "traced": traced})
        for p in problems:
            print(f"call {len(calls) - 1}: {p}", file=sys.stderr)
        if r is not None:
            print(f"call {len(calls) - 1}: wall_s {r['wall_s']:.4f} setup_s "
                  f"{r['setup_s']:.4f}{' traced' if traced else ''}", file=sys.stderr)

        longest = max(longest, time.monotonic() - t0)
        ends_at = time.monotonic() - start + longest
        if ends_at > RUN_LIMIT_S or (len(calls) >= MIN_CALLS and ends_at > args.seconds):
            return calls, ref


def median_q(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (SRC / "steelnav" / "cli.py").is_file():
        print(f"error: no steelnav sources at {SRC}; run from the root of a "
              f"steelnav checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=runs))
    try:
        calls, ref = measure(args, w, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    done = [c for c in calls if c["result"] is not None]
    plain = [c["result"] for c in done if not c["traced"]]
    traced = [c["result"] for c in done if c["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no call completed", file=sys.stderr)
        return 1
    failed = sum(bool(c["problems"]) for c in calls)

    values, spread = {}, {}
    for name, pick in (("wall_s", lambda r: r["wall_s"]),
                       ("setup_s", lambda r: r["setup_s"]),
                       ("peak_rss_mb", lambda r: r["peak_rss_kb"] / 1024.0)):
        values[name], *spread[name] = median_q([pick(r) for r in plain])
    values["artifact_bytes"] = sum(b for b, _ in ref["hashes"].values())
    values["run_fail_frac"] = failed / len(calls)
    values.update({k: ref["quality"].get(k) for k in ("edge_fail_frac", "seg_ari", "route_ratio")})
    if traced:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(r["layers"][name] for r in traced)
        values["trace_overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - values["wall_s"])

    kind = "per_layer" if args.trace else "end_to_end"
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(calls)} calls "
          f"({len(traced)} traced), {failed} failed")
    for name, unit in [(m["name"], m["unit"]) for m in spec["end_to_end"]] + list(PRINTED_ONLY):
        v = values[name]
        q = f"  (q1 {spread[name][0]:.4g}, q3 {spread[name][1]:.4g}, n={len(plain)})" \
            if name in spread else ""
        print(f"  {name:<16} {'n/a' if v is None else f'{v:.6g} {unit}'}{q}")
    for name, (size, digest) in ref["hashes"].items():
        print(f"  artifact {name:<22} {size:>10} B  sha256 {digest}")
    if args.trace:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<36} {values[m['name']] or 0:.6g} {m['unit']}")

    metrics = {m["name"]: {"value": values[m["name"]] or 0.0, "unit": m["unit"]}
               for m in spec[kind]}
    print(json.dumps({"correct": failed == 0, "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
