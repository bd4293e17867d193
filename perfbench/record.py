"""Record a workload's pool into perfbench/pools/: digests and baseline costs.

    python3 perfbench/record.py --workload sweep-d4

Runs the workload's whole pool once, in one worker, and refuses to record if
any item raises, exits nonzero or reports a violation.  The digests are the
reference every benchmark run checks report bytes against, so record them
only from a commit whose outputs are trusted, and only to add pool items:
cornervol's seeded reports are meant to stay byte-identical.  Each pool
seed's latency at the reference machine speed (summed over its items,
generation excluded) is kept as its baseline cost, which
``run.seeded_order`` uses to balance runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

from run import (POOLS, RUN_DIR, WORKLOADS, Audit, BenchError, Runner, digest,
                 failure, item_ref_seconds)


def record(name: str) -> tuple[dict[str, str], dict[str, float]]:
    workload = WORKLOADS[name]
    run_dir = RUN_DIR / f"record-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(run_dir, time.monotonic() + 24 * 3600)
    digests: dict[str, str] = {}
    times: dict[str, float] = {}

    def run_all(items, inputs):
        result, _ = runner.run(items, inputs, count=len(items))
        for item, res, seconds in zip(items, result["items"], item_ref_seconds(result)):
            why = failure(item, res, {item.label: digest(res["stdout"])})
            if why is not None:
                raise BenchError(f"{item.label}: {why}")
            digests[item.label] = digest(res["stdout"])
            times[item.label] = seconds
        return result["items"]

    try:
        seeds = list(workload.seeds)
        if isinstance(workload, Audit):
            gen = run_all(workload.gen_items(seeds), [])
            paths = []
            for s, res in zip(seeds, gen):
                path = run_dir / f"assembly-{s}.json"
                path.write_text(res["stdout"], encoding="utf-8")
                paths.append(path)
            run_all(workload.items(seeds, paths), [str(p) for p in paths])
        else:
            run_all(workload.items(seeds), [])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return digests, times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    args = parser.parse_args()
    try:
        digests, times = record(args.workload)
    except BenchError as exc:
        print(f"record: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cost = {str(s): round(sum(t for label, t in times.items()
                              if label.split()[0] == f"seed={s}" and not label.endswith("gen")), 4)
            for s in workload.seeds}
    POOLS.mkdir(exist_ok=True)
    (POOLS / f"{args.workload}.json").write_text(
        json.dumps({"cost_s": cost, "digests": digests}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"recorded {len(digests)} digests for {args.workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
