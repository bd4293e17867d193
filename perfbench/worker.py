"""Benchmark worker: one fresh interpreter driving cornervol in a closed loop.

    python3 perfbench/worker.py SPEC.json

perfbench/run.py writes SPEC and starts this script; it is not meant to be run
by hand.  SPEC names the checkout's source directory, the input files, the
items (each one argv for ``cornervol.cli.main``) and the stopping rule:

* ``"seconds"``: call items until that much time has passed since the first
  call started (the item running at the deadline completes);
* ``"count"``: call exactly that many items, with no time limit.

The worker imports cornervol from the checkout, reads every input file, and
prints ``ready``; run.py times spawn-to-ready as set-up.  A ``probe``
spec stops there.  Otherwise each item starts only after the previous one
returned, its report is captured in memory, and all results (and, when
tracing, all spans) are written once at the end.

The worker also times a fixed calibration kernel before the first item and
after every item, outside the item timings; run.py uses those times to
express item times at a reference machine speed (see ``calibrate``).
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

# Rounds of the calibration kernel: about 25 ms on a 2 GHz x86-64 core.
CALIBRATION_ROUNDS = 24


def calibrate() -> float:
    """Seconds taken by a fixed piece of exact rational arithmetic.

    The kernel eliminates small Fraction matrices in pure Python, the kind of
    work that dominates cornervol, so it slows and speeds up with the machine
    the same way.  It touches no cornervol code, so no change to the program
    moves it.
    """
    start = time.perf_counter()
    n = 8
    for r in range(CALIBRATION_ROUNDS):
        m = [[Fraction((i * 7 + j * 3 + r) % 11 - 5, 1 + (i * j + r) % 5)
              for j in range(n)] for i in range(n)]
        for c in range(n):
            p = next((i for i in range(c, n) if m[i][c] != 0), None)
            if p is None:
                break
            m[c], m[p] = m[p], m[c]
            for i in range(c + 1, n):
                f = m[i][c] / m[c][c]
                if f:
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return time.perf_counter() - start


def _import_cli(src: Path):
    sys.path.insert(0, str(src))
    import cornervol.cli as cli

    # A cornervol installed elsewhere must never stand in for the checkout's.
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"worker: cornervol imported from {cli.__file__}, not {src}")
    return cli


def _call(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaped engine error is a failed item
            raised = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "code": code, "raised": raised,
            "stdout": out.getvalue(), "stderr": err.getvalue(),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def run(spec: dict) -> dict:
    cli = _import_cli(Path(spec["src"]).resolve())
    for path in spec["inputs"]:
        Path(path).read_bytes()
    print("ready", flush=True)
    if spec.get("probe"):
        return {}

    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    items = spec["items"]
    seconds, count = spec.get("seconds"), spec.get("count")
    results = []
    calibration = [calibrate()]
    start = time.perf_counter()
    while True:
        done = len(results)
        if count is not None and done >= count:
            break
        if count is None and time.perf_counter() - start >= seconds:
            break
        results.append(_call(cli, items[done % len(items)]))
        calibration.append(calibrate())
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "items": results,
        "calibration_s": calibration,
        "spans": tracer.spans if tracer is not None else None,
    }


def main() -> int:
    spec_path = Path(sys.argv[1])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    result = run(spec)
    if result:
        Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
