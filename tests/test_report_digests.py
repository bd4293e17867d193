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

from cornervol import assembly, cli, geometry
from cornervol import io as cio

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


def reload_audits(tmp_path, capsys, monkeypatch):
    """Audit the glued dim-3 file of seed 2028 at every j, twice over, from
    empty hull and assembly memos, against the pool digests."""
    digests = json.loads((POOLS / "audit-d3.json").read_text(encoding="utf-8"))["digests"]
    assert cli.main(["gen", "--style", "glued", "--dim", "3", "--seed", "2028"]) == 0
    text = capsys.readouterr().out
    assert sha256(text) == digests["seed=2028 gen"]
    path = tmp_path / "assembly-2028.json"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(geometry, "_hull_cache", {})
    monkeypatch.setattr(cio, "_assembly_cache", {})
    for _ in range(2):
        for j in range(4):
            assert cli.main(["audit", str(path), "--j", str(j)]) == 0
            assert sha256(capsys.readouterr().out) == digests[f"seed=2028 j={j}"]


@pytest.mark.usefixtures("strict_hull")
def test_reloaded_audit_file_matches_pool_digests(tmp_path, capsys, monkeypatch):
    # The hull memo is emptied after gen, so the first audit hulls the pieces;
    # every later one, the whole second pass included, reloads lists the
    # process has already hulled and takes them from the memo (compared with
    # the engine under strict checks).  Strict checks bypass the assembly
    # memo, so every audit builds and validates its assembly anew.
    reload_audits(tmp_path, capsys, monkeypatch)
    assert cio._assembly_cache == {}


def test_reloaded_audit_file_matches_pool_digests_from_the_assembly_memo(
        tmp_path, capsys, monkeypatch):
    # The first audit builds the assembly and derives its hull; the other
    # seven take that assembly, hull included, from the memo.
    derived = []
    real = assembly._derived_hull
    monkeypatch.setattr(assembly, "_derived_hull", lambda a: derived.append(a) or real(a))
    reload_audits(tmp_path, capsys, monkeypatch)
    assert len(cio._assembly_cache) == 1 and len(derived) == 1


# Glued reports validate every piece they build or load.  These digests were
# recorded while validation still hulled the vertices with their coordinate
# maskings, so a change of validation route cannot move them unseen.
GLUED = {
    ("godbersen", "--dim", "3", "--style", "glued", "--trials", "3", "--seed", "0"):
        "933967615c89926b6168b895f40b2c90d4d69c4ad5ca15e7f1c57baa94f20fcb",
    ("gen", "--style", "glued", "--dim", "4", "--seed", "0"):
        "88bf8f27a7fd6df3c5718a2509eae492059ef5a80b242cb7fe17199132758b2a",
    # Its j = 0 and j = n rows print K's vertices.  Recorded while a glued
    # body's hull still came from the engine over every reflected vertex.
    ("godbersen", "--dim", "4", "--style", "glued", "--trials", "2", "--seed", "1"):
        "439af3017ef85379bb64ccc4068da3e3e28273d78ce89cfa33cee78f25e01246",
}


@pytest.mark.parametrize("argv", sorted(GLUED), ids=" ".join)
def test_glued_report_matches_recorded_digest(argv, capsys):
    assert cli.main(list(argv)) == 0
    assert sha256(capsys.readouterr().out) == GLUED[argv]


# Equal-piece bodies get their hull derived from the piece; their equality
# rows print its vertices.  Recorded while that hull still came from the
# engine over every reflected vertex.
UNCONDITIONAL = {
    ("godbersen", "--family", "cube", "--dim", "3"):
        "dbeb5530f0f9a28595f6e647aeee6597fc504a229a6453f24d0829335f564fa8",
    ("godbersen", "--family", "cross", "--dim", "4"):
        "23070cb5567d3633d7539ed08b24278e2a94b74f6aef972e39d30adc46447aab",
    ("godbersen", "--dim", "3", "--style", "mixed", "--trials", "10", "--seed", "4"):
        "54a7fedfd70ccda930cf314c77f292f121ed3dafcc0295dc01864ba26aded420",
}


@pytest.mark.parametrize("argv", sorted(UNCONDITIONAL), ids=" ".join)
def test_unconditional_report_matches_recorded_digest(argv, capsys):
    assert cli.main(list(argv)) == 0
    report = capsys.readouterr().out
    assert sha256(report) == UNCONDITIONAL[argv]
    assert any("vertices" in rec for rec in json.loads(report)["records"])


# The equality families' reports and files.  Recorded while each case built
# its orthant pieces in a loop of its own, and the hull of each from the
# origin and the piece's positive axis ends only.
EQUALITY = {
    ("godbersen", "--family", "equality-1", "--dim", "3", "--trials", "3"):
        "49171f8420df60572dfd57268a4f35fbdb6b1dbe5f75a74a41bde23b21399d61",
    ("godbersen", "--family", "equality-2", "--dim", "3", "--trials", "3"):
        "521dc2a09413415d95280c6c503de34d54a59017287f19c04c8697e261ded813",
    ("gen", "--family", "equality-1", "--alphas", "1,3/2,2"):
        "75d9ede1fdeb33009d4c8ccd6476c088c76cbe63b2448e5c8da48746e43784b6",
    ("gen", "--family", "equality-2", "--alphas", "1,2,1", "--beta", "1/2"):
        "53dc653f567fe46036672c82a3cfc9e17a8812a2c73fb5019d24981038979065",
}


@pytest.mark.parametrize("argv", sorted(EQUALITY), ids=" ".join)
def test_equality_family_matches_recorded_digest(argv, capsys):
    assert cli.main(list(argv)) == 0
    assert sha256(capsys.readouterr().out) == EQUALITY[argv]
