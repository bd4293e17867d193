"""cornervol benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, default seed

Each run starts fresh single-threaded worker processes (perfbench/worker.py),
so the program's unbounded module caches start empty.  One client drives
cornervol through ``cornervol.cli.main`` in a closed loop: the next item
starts only after the previous one returned.  An *item* is one
``cli.main(argv)`` call; a *check* is one (assembly, j) verdict.

The seed only chooses which inputs the program sees and in what order: every
item comes from a fixed pool whose report digests are recorded in
perfbench/pools/, so every report is checked byte for byte.  An item
fails when it raises, exits nonzero, reports a violation (or ``all_hold``
false), or its report bytes differ from the recorded digest.

Times are reported at a reference machine speed.  The shared machines this
runs on change speed by tens of percent from one minute to the next, the same
for cornervol and for any other pure-Python arithmetic.  So every timed spawn
and every item sits next to a timing of a fixed calibration kernel
(``worker.calibrate``), and a time t measured while the kernel took c seconds
is reported as t * CAL_REF_S / c.  The raw wall-clock figures are in the info
line.

With ``--trace 0`` the last output line carries the end-to-end metrics.
With ``--trace 1`` an untraced worker runs first, then a traced worker runs
the same items; the last line carries the per-layer metrics of the traced
run, its overhead over the untraced one, and ``correct`` also requires the
two runs' report bytes to be identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from math import exp, lgamma, log
from pathlib import Path
from typing import NamedTuple

from tracing import layer_metrics
from worker import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
POOLS = HERE / "pools"
RUN_DIR = ROOT / ".perfbench_run"
# Generated audit inputs, kept across runs of one checkout and re-checked
# against their recorded digests before every use.
INPUTS_DIR = ROOT / ".perfbench_inputs"

DEFAULT_SEED = 1
# Not used while the benchmark or any change measured with it was written:
# re-check a claim on it before trusting it.
HELD_OUT_SEED = 7919
DEFAULT_SECONDS = 45

# Seconds the calibration kernel takes at the reference speed; times are
# reported as if measured on a machine that runs the kernel this fast.
CAL_REF_S = 0.025

# Spawn-to-ready is a fraction of a second and noisy, so each untraced run
# times several spawns (probes plus the measured worker) and takes the median.
SETUP_SAMPLES = 15
# Everything must end within this many seconds of run.py starting.
DEADLINE_S = 170

WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class Item(NamedTuple):
    label: str       # key of the recorded digest
    argv: list[str]  # what cornervol.cli.main receives
    checks: int      # (assembly, j) verdicts in the report


@dataclass(frozen=True)
class Sweep:
    """One ``godbersen --trials 1`` item per pool seed."""

    dim: int
    style: str
    seeds: range
    strata: int
    rss_items: int  # peak RSS is read after this many items

    def items(self, seeds) -> list[Item]:
        return [Item(f"seed={s}",
                     ["godbersen", "--dim", str(self.dim), "--style", self.style,
                      "--trials", "1", "--seed", str(s)],
                     self.dim + 1)
                for s in seeds]


@dataclass(frozen=True)
class Audit:
    """``audit FILE --j j`` for every j over glued assembly files.

    ``cornervol gen`` writes the files before the measured worker starts.
    Their bytes are checked against recorded digests too, and a file that
    still matches is reused by later runs instead of generated again.
    """

    dim: int
    seeds: range
    strata: int
    files: int  # assembly files per run
    rss_items: int  # peak RSS is read after this many items

    def gen_items(self, seeds) -> list[Item]:
        return [Item(f"seed={s} gen",
                     ["gen", "--style", "glued", "--dim", str(self.dim), "--seed", str(s)], 0)
                for s in seeds]

    def items(self, seeds, paths) -> list[Item]:
        return [Item(f"seed={s} j={j}", ["audit", str(path), "--j", str(j)], 1)
                for s, path in zip(seeds, paths) for j in range(self.dim + 1)]


# Pools are sized for several times the items one run gets through today;
# a run that exhausts its order starts it again (``wrapped_pool`` in info),
# which then measures warm caches.  The caches grow with every item, so peak
# RSS is read after a fixed number of items, about two thirds of what a run
# gets through today: a faster or slower machine must not move it.
WORKLOADS = {
    "sweep-d4": Sweep(4, "unconditional", range(0, 160), strata=20, rss_items=30),
    "audit-d3": Audit(3, range(2000, 2100), strata=20, files=48, rss_items=60),
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def seeded_order(name: str, cost: dict[int, float], strata: int, seed: int) -> list[int]:
    """Pool seeds in the order one run takes them.

    Item costs differ by up to 17 times, so a plain shuffle lets the seed
    decide how much work a run holds.  Instead the pool is cut into
    ``strata`` equal bands by baseline cost, and each round takes one unused
    seed from every band, a cheap band next to its mirror-image costly band
    (k with strata-1-k), pairs in seeded order.  Any prefix of the order then
    costs close to the pool's mean, while different seeds still see
    different inputs.
    """
    rng = random.Random(f"{name}:{seed}")
    ranked = sorted(cost, key=lambda s: (cost[s], s))
    size, rest = divmod(len(ranked), strata)
    if rest or strata % 2:
        raise BenchError(f"{name}: pool of {len(ranked)} does not split into {strata} bands")
    bands = [rng.sample(ranked[k * size:(k + 1) * size], size) for k in range(strata)]
    order = []
    for rnd in range(size):
        for k in rng.sample(range(strata // 2), strata // 2):
            pair = [k, strata - 1 - k]
            rng.shuffle(pair)
            order += [bands[b][rnd] for b in pair]
    return order


class Runner:
    """Spawns workers inside one run directory under a shared deadline."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = {**os.environ, **WORKER_ENV}
        self._n = 0

    def _spawn(self, spec: dict) -> tuple[subprocess.Popen, float, float, Path, Path]:
        """Start a worker and wait for it to be ready.

        Returns the process, its spawn-to-ready seconds, the calibration
        time taken just before the spawn, and its output and error paths.
        """
        self._n += 1
        spec_path = self.run_dir / f"worker{self._n}.json"
        out_path = self.run_dir / f"worker{self._n}.out.json"
        err_path = self.run_dir / f"worker{self._n}.err.txt"
        spec = {**spec, "src": str(SRC), "out": str(out_path)}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        cal = calibrate()
        with open(err_path, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(WORKER), str(spec_path)],
                                    cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            line = proc.stdout.readline()
        except BaseException:
            self._stop(proc)
            raise
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            self._finish(proc, err_path)
            raise BenchError(f"worker did not become ready: {err_path.read_text()[-2000:]}")
        return proc, setup, cal, out_path, err_path

    def _stop(self, proc: subprocess.Popen) -> None:
        proc.kill()
        proc.communicate()

    def _finish(self, proc: subprocess.Popen, err_path: Path) -> None:
        try:
            proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self._stop(proc)
            raise BenchError("worker overran the run deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: "
                             f"{err_path.read_text()[-2000:]}")

    def setup_probe(self, inputs: list[str]) -> tuple[float, float]:
        """Spawn-to-ready seconds of a worker that stops there, and its calibration."""
        proc, setup, cal, _, err_path = self._spawn({"probe": True, "inputs": inputs})
        self._finish(proc, err_path)
        return setup, cal

    def run(self, items: list[Item], inputs: list[str], *, seconds: float | None = None,
            count: int | None = None, trace: bool = False) -> tuple[dict, tuple[float, float]]:
        spec = {"inputs": inputs, "items": [it.argv for it in items],
                "seconds": seconds, "count": count, "trace": trace}
        proc, setup, cal, out_path, err_path = self._spawn(spec)
        self._finish(proc, err_path)
        return json.loads(out_path.read_text(encoding="utf-8")), (setup, cal)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def failure(item: Item, res: dict, recorded: dict[str, str]) -> str | None:
    """Why an item failed, or None when its report is right."""
    if res["raised"]:
        return f"raised {res['raised']}"
    if res["code"] != 0:
        return f"exit code {res['code']}: {res['stderr'].strip()[:200]}"
    if item.argv[0] in ("godbersen", "audit"):
        try:
            report = json.loads(res["stdout"])
            if item.argv[0] == "godbersen":
                bad = (report["summary"]["violations"] != 0
                       or not all(r["holds"] for r in report["records"])
                       or len(report["records"]) != item.checks)
            else:
                bad = not report["all_hold"]
        except (json.JSONDecodeError, KeyError, TypeError):
            return "report is not the expected JSON"
        if bad:
            return "report shows a violation"
    if digest(res["stdout"]) != recorded.get(item.label):
        return "report bytes differ from the recorded digest"
    return None


def check_items(items: list[Item], results: list[dict], recorded: dict[str, str],
                failures: list[str]) -> list[bool]:
    """Per-result pass flags; failure reasons are appended to ``failures``."""
    passed = []
    for i, res in enumerate(results):
        item = items[i % len(items)]
        why = failure(item, res, recorded)
        if why is not None:
            failures.append(f"{item.label}: {why}")
        passed.append(why is None)
    return passed


def load_pool(name: str) -> tuple[dict[int, float], dict[str, str]]:
    """Baseline cost per pool seed and recorded digest per item label."""
    pool = json.loads((POOLS / f"{name}.json").read_text(encoding="utf-8"))
    cost = {int(s): t for s, t in pool["cost_s"].items()}
    if sorted(cost) != list(WORKLOADS[name].seeds):
        raise BenchError(f"{name}: recorded pool does not match the workload's seeds")
    return cost, pool["digests"]


def prepare(name: str, seed: int, runner: Runner, cost: dict[int, float],
            recorded: dict[str, str], failures: list[str]) -> tuple[list[Item], list[str], int]:
    """Items and input files of one run, and the cornervol calls made for them."""
    workload = WORKLOADS[name]
    order = seeded_order(name, cost, workload.strata, seed)
    if isinstance(workload, Sweep):
        return workload.items(order), [], 0
    seeds = order[:workload.files]
    paths = [INPUTS_DIR / name / f"assembly-{s}.json" for s in seeds]
    missing = [(s, path) for s, path in zip(seeds, paths)
               if not path.is_file()
               or digest(path.read_text(encoding="utf-8")) != recorded[f"seed={s} gen"]]
    gen = workload.gen_items([s for s, _ in missing])
    if gen:
        result, _ = runner.run(gen, [], count=len(gen))
        check_items(gen, result["items"], recorded, failures)
        for (_, path), res in zip(missing, result["items"]):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(res["stdout"], encoding="utf-8")
    return workload.items(seeds, paths), [str(p) for p in paths], len(gen)


def ref_seconds(seconds: float, cal: float) -> float:
    """A time measured while the calibration kernel took ``cal`` seconds,
    at the reference speed."""
    return seconds * CAL_REF_S / cal


def item_ref_seconds(result: dict) -> list[float]:
    """Item times of a worker result at the reference speed; each item is
    scaled by the mean of the calibrations just before and just after it."""
    cal = result["calibration_s"]
    return [ref_seconds(r["seconds"], (cal[i] + cal[i + 1]) / 2)
            for i, r in enumerate(result["items"])]


def hd_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median.

    A weighted mean of all order statistics, the i-th of n weighted by the
    Beta((n+1)/2, (n+1)/2) mass on [i/n, (i+1)/n].  Item costs within a run
    differ by up to 17 times, so the middle sample alone jumps with the few
    items next to it; this estimate of the same median moves less.
    """
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = 2 * lgamma(a) - lgamma(2 * a)
    steps = 64  # midpoint rule per interval

    def density(u: float) -> float:
        return exp((a - 1) * (log(u) + log(1 - u)) - log_norm)

    weights = [sum(density((i + (k + 0.5) / steps) / n) for k in range(steps))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: (result object, information for people)."""
    if not (SRC / "cornervol" / "__init__.py").is_file():
        raise BenchError(f"no cornervol sources under {SRC}")
    cost, recorded = load_pool(name)
    deadline = time.monotonic() + DEADLINE_S
    run_dir = RUN_DIR / str(os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    mismatched = 0
    try:
        runner = Runner(run_dir, deadline)
        items, inputs, attempted = prepare(name, seed, runner, cost, recorded, failures)
        setups = [] if trace else [runner.setup_probe(inputs)
                                   for _ in range(SETUP_SAMPLES - 1)]
        result, setup = runner.run(items, inputs, seconds=seconds)
        setups.append(setup)
        done = result["items"]
        done_ref = item_ref_seconds(result)
        passed = check_items(items, done, recorded, failures)
        attempted += len(done)
        info = {
            "workload": name, "seed": seed, "items": len(done),
            "wrapped_pool": len(done) > len(items),
            "verdict_max_s": max(done_ref),
            "setup_samples_s": [ref_seconds(*s) for s in setups],
            "speed": CAL_REF_S / statistics.median(result["calibration_s"]),
            "python": result["python"], "numpy": result["numpy"],
            "nproc": len(os.sched_getaffinity(0)),
        }
        if not trace:
            checks = sum(items[i % len(items)].checks
                         for i, ok in enumerate(passed) if ok)
            metrics = {
                "setup_s": metric(statistics.median(info["setup_samples_s"]), "s"),
                "checks_per_s": metric(checks / sum(done_ref), "1/s"),
                "verdict_p50_s": metric(hd_median(done_ref), "s"),
                "peak_rss_mb": metric(
                    done[min(WORKLOADS[name].rss_items, len(done)) - 1]["maxrss_kb"] / 1024,
                    "MB"),
            }
            info["wall_clock"] = {
                "setup_s": statistics.median(s for s, _ in setups),
                "checks_per_s": checks / sum(r["seconds"] for r in done),
                "verdict_p50_s": statistics.median(r["seconds"] for r in done),
            }
        else:
            traced, _ = runner.run(items, inputs, count=len(done), trace=True)
            check_items(items, traced["items"], recorded, failures)
            attempted += len(traced["items"])
            mismatched = sum(a["stdout"] != b["stdout"]
                             for a, b in zip(done, traced["items"]))
            overhead = sum(item_ref_seconds(traced)) / sum(done_ref)
            metrics = {k: metric(v, unit) for k, (v, unit) in
                       layer_metrics(traced["spans"]).items()}
            metrics["trace.overhead"] = metric(overhead, "ratio")
            metrics["trace.items"] = metric(len(done), "count")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if RUN_DIR.is_dir() and not any(RUN_DIR.iterdir()):
            RUN_DIR.rmdir()
    info["failures"] = failures[:20]
    info["traced_reports_differing"] = mismatched
    out = {"correct": not failures and not mismatched, "attempted": attempted,
           "failed": len(failures), "metrics": metrics}
    return out, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"held-out seed for re-checking claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        for name in names:
            out, info = run_workload(name, args.seed, args.seconds, bool(args.trace))
            if not args.workload:
                for key, m in out["metrics"].items():
                    print(f"{name:16} {key:42} {m['value']:.6g} {m['unit']}")
                print(f"{name:16} {'correct':42} {out['correct']} "
                      f"({out['failed']} failed of {out['attempted']})")
            print(json.dumps({"info": info}))
            print(json.dumps(out), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
