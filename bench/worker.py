"""One benchmark call in a fresh process.

Imports steelnav from the checkout, generates the call's inputs
(`workloads.setup`), then runs the pipeline through `steelnav.cli.main`.
Timestamps are CLOCK_MONOTONIC, which the parent process shares, so the
parent can count interpreter start-up into the set-up time.

    python3 bench/worker.py --src SRC --workload NAME --seed N --dir CALL_DIR \
        --result RESULT.json --trace 0|1
"""
import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    sys.path.insert(0, args.src)
    from steelnav import cli
    import tracer
    import workloads

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
    argv = workloads.setup(args.workload, args.seed, Path(args.dir), cli)
    t_setup = time.monotonic()
    if tr is not None:
        tr.phase = "pipeline"
    exit_code = cli.main(argv)
    t_end = time.monotonic()
    sys.stdout.flush()

    result = {
        "t_setup": t_setup,
        "t_end": t_end,
        "exit_code": exit_code,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tr is not None:
        result["restore_failures"] = tr.restore()
        result["layers"] = tracer.layer_metrics(tr.spans)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
