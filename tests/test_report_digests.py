"""Seeded reports stay byte-identical to the benchmark pools' digests.

``perfbench/pools/sweep-d4.json`` records the SHA-256 of every
``godbersen --dim 4 --style unconditional --trials 1 --seed s`` report in the
benchmark pool, and ``perfbench/pools/audit-d3.json`` that of every
``gen --style glued --dim 3 --seed s`` file and of its ``audit --j j``
reports.  The cheapest items are recomputed here, so an engine change that
moves a single byte of a report fails Tier-1, not only the benchmark.  The
pool files are read and never written.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cornervol import cli

POOLS = Path(__file__).resolve().parents[1] / "perfbench" / "pools"
POOL = POOLS / "sweep-d4.json"


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", [61, 6, 58, 159])
def test_sweep_report_matches_pool_digest(seed, capsys):
    argv = ["godbersen", "--dim", "4", "--style", "unconditional", "--trials", "1",
            "--seed", str(seed)]
    assert cli.main(argv) == 0
    report = capsys.readouterr().out
    recorded = json.loads(POOL.read_text(encoding="utf-8"))["digests"][f"seed={seed}"]
    assert sha256(report) == recorded


@pytest.mark.parametrize("seed", [2059, 2010])
def test_audit_reports_match_pool_digests(seed, tmp_path, capsys):
    digests = json.loads((POOLS / "audit-d3.json").read_text(encoding="utf-8"))["digests"]
    assert cli.main(["gen", "--style", "glued", "--dim", "3", "--seed", str(seed)]) == 0
    text = capsys.readouterr().out
    assert sha256(text) == digests[f"seed={seed} gen"]
    path = tmp_path / f"assembly-{seed}.json"
    path.write_text(text, encoding="utf-8")
    for j in range(4):
        assert cli.main(["audit", str(path), "--j", str(j)]) == 0
        assert sha256(capsys.readouterr().out) == digests[f"seed={seed} j={j}"]


# Glued reports validate every piece they build or load.  These digests were
# recorded while validation still hulled the vertices with their coordinate
# maskings, so a change of validation route cannot move them unseen.
GLUED = {
    ("godbersen", "--dim", "3", "--style", "glued", "--trials", "3", "--seed", "0"):
        "933967615c89926b6168b895f40b2c90d4d69c4ad5ca15e7f1c57baa94f20fcb",
    ("gen", "--style", "glued", "--dim", "4", "--seed", "0"):
        "88bf8f27a7fd6df3c5718a2509eae492059ef5a80b242cb7fe17199132758b2a",
}


@pytest.mark.parametrize("argv", sorted(GLUED), ids=" ".join)
def test_glued_report_matches_recorded_digest(argv, capsys):
    assert cli.main(list(argv)) == 0
    assert sha256(capsys.readouterr().out) == GLUED[argv]
