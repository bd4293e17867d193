"""Seeded sweep reports stay byte-identical to the benchmark pool's digests.

``perfbench/pools/sweep-d4.json`` records the SHA-256 of every
``godbersen --dim 4 --style unconditional --trials 1 --seed s`` report in the
benchmark pool.  The cheapest four are recomputed here, so an engine change
that moves a single byte of a report fails Tier-1, not only the benchmark.
The pool file is read and never written.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cornervol import cli

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pools" / "sweep-d4.json"


@pytest.mark.parametrize("seed", [61, 6, 58, 159])
def test_sweep_report_matches_pool_digest(seed, capsys):
    argv = ["godbersen", "--dim", "4", "--style", "unconditional", "--trials", "1",
            "--seed", str(seed)]
    assert cli.main(argv) == 0
    report = capsys.readouterr().out
    recorded = json.loads(POOL.read_text(encoding="utf-8"))["digests"][f"seed={seed}"]
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == recorded
