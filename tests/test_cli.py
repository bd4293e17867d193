"""Command-line interface: behavior, exit codes, deterministic reports."""

import dataclasses
import json
import runpy

import pytest

from cornervol import assembly, cli, geometry, mixed
from cornervol import hull as hull_mod
from cornervol.assembly import AssemblyError
from cornervol.cli import (
    EXIT_INAPPLICABLE,
    EXIT_INTERNAL,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VIOLATION,
    main,
)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "sq.json"
    path.write_text(json.dumps(
        {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]}
    ))
    return str(path)


class TestMixvol:
    def test_simplex_pair(self, capsys, triangle_file):
        code, out, _ = run(capsys, "mixvol", triangle_file, triangle_file, "--j", "1")
        assert code == EXIT_OK
        assert out.strip() == "1/2"

    def test_square_triangle(self, capsys, triangle_file, square_file):
        code, out, _ = run(capsys, "mixvol", square_file, triangle_file, "--j", "1",
                           "--cross-check")
        assert code == EXIT_OK
        assert out.strip() == "1"

    def test_cross_check_simplex_vs_negation(self, capsys, tmp_path):
        s3 = tmp_path / "s3.json"
        s3.write_text(json.dumps({"dim": 3, "vertices": [
            ["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
        n3 = tmp_path / "n3.json"
        n3.write_text(json.dumps({"dim": 3, "vertices": [
            ["0", "0", "0"], ["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]]}))
        for j, expected in ((0, "1/6"), (1, "1/2"), (2, "1/2"), (3, "1/6")):
            code, out, _ = run(capsys, "mixvol", str(s3), str(n3), "--j", str(j),
                               "--cross-check")
            assert code == EXIT_OK
            assert out.strip() == expected

    def test_parse_failure_exit_2(self, capsys, tmp_path, triangle_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{nonsense")
        code, _, err = run(capsys, "mixvol", str(bad), triangle_file, "--j", "0")
        assert code == EXIT_PARSE
        assert "error" in err

    def test_inapplicable_method_exit_3(self, capsys, triangle_file, square_file):
        code, _, err = run(capsys, "mixvol", square_file, triangle_file, "--j", "1",
                           "--method", "closed-form")
        assert code == EXIT_INAPPLICABLE
        assert "closed-form" in err

    def test_closed_form_on_aligned_simplices(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"], ["2", "0"], ["0", "1"]]}))
        b = tmp_path / "b.json"
        b.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "3"]]}))
        code, out, _ = run(capsys, "mixvol", str(a), str(b), "--j", "1",
                           "--method", "closed-form", "--cross-check")
        assert code == EXIT_OK
        assert out.strip() == "3"

    def test_cayley_is_default_and_matches_interpolation(self, capsys, square_file,
                                                          triangle_file):
        for method in ("cayley", "interpolation"):
            code, out, _ = run(capsys, "mixvol", square_file, triangle_file, "--j", "1",
                               "--method", method)
            assert code == EXIT_OK
            assert out.strip() == "1"

    def test_cross_check_catches_route_disagreement(self, capsys, monkeypatch,
                                                    square_file, triangle_file):
        # A wrong probe oracle must be caught against the Cayley engine.
        real = mixed.volume_polynomial_by_probes

        def skewed(k, t):
            poly = real(k, t)
            return mixed.VolumePolynomial(poly.dim, tuple(2 * c for c in poly.coeffs))

        monkeypatch.setattr(cli, "volume_polynomial_by_probes", skewed)
        code, _, err = run(capsys, "mixvol", square_file, triangle_file, "--j", "1",
                           "--cross-check")
        assert code == EXIT_MISMATCH
        assert "cayley=1" in err and "interpolation=2" in err

    def test_closed_form_rejects_axis_segment_without_origin(self, capsys, tmp_path,
                                                             triangle_file):
        # conv(e1, e2) has one positive vertex per axis but no origin vertex;
        # it is not an aligned simplex.
        seg = tmp_path / "seg.json"
        seg.write_text(json.dumps({"dim": 2, "vertices": [["1", "0"], ["0", "1"]]}))
        code, _, _ = run(capsys, "mixvol", str(seg), triangle_file, "--j", "1",
                         "--method", "closed-form")
        assert code == EXIT_INAPPLICABLE


class TestGodbersen:
    def test_sweep_passes_and_counts(self, capsys):
        code, out, _ = run(capsys, "godbersen", "--trials", "3", "--dim", "2",
                           "--seed", "5", "--style", "mixed")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["summary"]["violations"] == 0
        assert rep["summary"]["records"] == 3 * 3  # trials * (n + 1)

    def test_glued_sweep_runs_at_dim_4(self, capsys):
        # An unconditional body has K = -K, so its j=1 ratio is exactly 1/4;
        # a glued trial must stay glued and test the bound non-trivially.
        code, out, _ = run(capsys, "godbersen", "--dim", "4", "--style", "glued",
                           "--trials", "1", "--seed", "0")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert {rec["style"] for rec in rep["records"]} == {"glued"}
        assert next(rec["ratio"] for rec in rep["records"] if rec["j"] == 1) != "1/4"

    def test_mirror_j_disagreement_exits_4(self, capsys, monkeypatch):
        # V(K[j], -K[n-j]) = V(K[n-j], -K[j]), so a record at j that differs
        # from the one at n-j is caught as a disagreement.
        real = cli.godbersen_check

        def skewed(assembly, j):
            rep = real(assembly, j)
            return dataclasses.replace(rep, mixed=rep.mixed + 1) if j == 1 else rep

        monkeypatch.setattr(cli, "godbersen_check", skewed)
        code, out, err = run(capsys, "godbersen", "--dim", "3", "--style", "glued",
                             "--trials", "1", "--seed", "0")
        assert code == EXIT_MISMATCH
        assert out == ""
        assert "V(K[1], -K[2])" in err

    def test_equality_family_flag(self, capsys):
        code, out, _ = run(capsys, "godbersen", "--family", "equality-1", "--trials", "4",
                           "--dim", "3", "--seed", "2")
        assert code == EXIT_OK
        rep = json.loads(out)
        for rec in rep["records"]:
            assert rec["is_equality"]
            assert "vertices" in rec  # equality records carry the instance

    def test_equality_family_2_flag(self, capsys):
        code, out, _ = run(capsys, "godbersen", "--family", "equality-2", "--trials", "3",
                           "--dim", "3", "--seed", "2")
        assert code == EXIT_OK
        assert json.loads(out)["summary"]["violations"] == 0

    def test_equality_on_a_non_simplex_is_a_violation(self, capsys, monkeypatch):
        # Equality at 1 <= j <= n-1 holds only for simplices; a cube made to
        # report it is a would-be counterexample, and only its records change.
        real = cli.godbersen_check

        def tight(assembly, j):
            rep = real(assembly, j)
            return dataclasses.replace(rep, mixed=rep.bound, ratio=1, is_equality=True)

        code, honest, _ = run(capsys, "godbersen", "--family", "cube", "--dim", "3")
        assert code == EXIT_OK
        monkeypatch.setattr(cli, "godbersen_check", tight)
        code, out, _ = run(capsys, "godbersen", "--family", "cube", "--dim", "3")
        assert code == EXIT_VIOLATION
        rep = json.loads(out)
        assert rep["summary"]["violations"] == 2
        for rec, before in zip(rep["records"], json.loads(honest)["records"]):
            assert rec["holds"] == (rec["j"] in (0, 3))
            assert len(rec["vertices"]) == 8
            assert rec.keys() == before.keys() | {"vertices"}

    def test_one_hull_per_unconditional_item(self, capsys, monkeypatch):
        # The piece is hulled once; the body's hull is derived from it.
        calls = []
        real = hull_mod.hull_of_points

        def counting(points, dim):
            calls.append(dim)
            return real(points, dim)

        monkeypatch.setattr(hull_mod, "hull_of_points", counting)
        monkeypatch.setattr(geometry, "hull_of_points", counting)
        code, _, _ = run(capsys, "godbersen", "--dim", "4", "--trials", "1", "--seed", "91")
        assert code == EXIT_OK
        assert calls == [4]

    def test_cube_family_strict(self, capsys):
        code, out, _ = run(capsys, "godbersen", "--family", "cube", "--dim", "3")
        assert code == EXIT_OK
        rep = json.loads(out)
        for rec in rep["records"]:
            if 0 < rec["j"] < 3:
                assert not rec["is_equality"]
        # -C = C for the cube, so each ratio is 1 / C(3, j); the smallest is 1/3.
        assert rep["summary"]["min_ratio"] == "1/3"

    def test_negative_trials_exit_2(self, capsys):
        code, out, err = run(capsys, "godbersen", "--trials", "-3")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: --trials must be nonnegative, got -3\n"
        code, out, _ = run(capsys, "godbersen", "--trials", "0")
        assert code == EXIT_OK
        assert json.loads(out)["summary"]["records"] == 0

    def test_dimension_cap(self, capsys):
        code, _, err = run(capsys, "godbersen", "--dim", "7", "--trials", "1")
        assert code == EXIT_PARSE
        assert "CORNER_MIXVOL_MAX_DIM" in err

    @pytest.mark.parametrize("dim", ["0", "-3"])
    def test_nonpositive_dimension_exit_2(self, capsys, dim):
        # The cap's check refuses it, even when nothing would be built.
        assert run(capsys, "godbersen", "--dim", dim, "--trials", "0") == (
            EXIT_PARSE, "", "error: dimension must be positive\n")

    def test_sweep_cap_is_six(self, capsys, monkeypatch):
        monkeypatch.delenv("CORNER_MIXVOL_MAX_DIM", raising=False)
        code, out, _ = run(capsys, "godbersen", "--dim", "5", "--trials", "1")
        assert code == EXIT_OK
        assert json.loads(out)["summary"]["records"] == 6
        # A glued dim-6 sweep of one trial takes seconds, so it is not run here.
        assert geometry.max_dim() == 6
        code, _, err = run(capsys, "godbersen", "--dim", "7", "--trials", "1")
        assert code == EXIT_PARSE
        assert "dimension 7 exceeds cap 6" in err

    def test_env_var_raises_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CORNER_MIXVOL_MAX_DIM", "8")
        code, out, _ = run(capsys, "simplex", "--alphas", "1,1,1,1,1,1,1", "--j", "2")
        assert code == EXIT_OK
        assert out.strip() == "1/5040"

    def test_env_var_lowers_cli_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CORNER_MIXVOL_MAX_DIM", "3")
        code, _, err = run(capsys, "godbersen", "--dim", "4", "--trials", "1")
        assert code == EXIT_PARSE
        assert "cap 3" in err

    def test_env_var_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("CORNER_MIXVOL_MAX_DIM", "lots")
        code, _, err = run(capsys, "simplex", "--alphas", "1,1", "--j", "1")
        assert code == EXIT_PARSE
        assert err.strip() == "error: CORNER_MIXVOL_MAX_DIM must be an integer, got 'lots'"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "godbersen", "--trials", "1", "--dim", "2",
                           "--format", "csv", "--approx")
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert header.startswith("style,trial,j,lhs,rhs,ratio")
        assert "approx_ratio" in header


class TestAuditAndGen:
    def test_gen_audit_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "--family", "equality-2",
                           "--alphas", "1,1", "--beta", "1")
        assert code == EXIT_OK
        path = tmp_path / "asm.json"
        path.write_text(out)
        code, out, _ = run(capsys, "audit", str(path), "--j", "1")
        assert code == EXIT_OK
        audit = json.loads(out)
        assert audit["all_hold"]
        assert audit["ratio"] == "1"
        names = [s["name"] for s in audit["steps"]]
        assert "orthant-split" in names and "reindex-bijection" in names

    def test_gen_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "gen", "--style", "unconditional", "--seed", "1")
        _, out2, _ = run(capsys, "gen", "--style", "unconditional", "--seed", "1")
        assert out1 == out2

    def test_gen_random_revalidates(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "--style", "glued", "--dim", "2", "--seed", "9")
        assert code == EXIT_OK
        path = tmp_path / "g.json"
        path.write_text(out)
        code, out, _ = run(capsys, "audit", str(path), "--j", "1")
        assert code == EXIT_OK

    # Hull calls of a cold ``audit --j j`` of the glued dim-3 file of seed
    # 2028, each j in a fresh process.  The load hulls 3 distinct pieces; the
    # negated pieces and the negated body take none, since ``negate`` derives
    # their hull data (before that, 7, 21, 21 and 7 calls).  At j = 1 and 2
    # the shadows are the pieces' faces, one hull for each distinct face
    # (17 calls when every piece's shadows were hulled).
    COLD_HULLS = {0: 3, 1: 11, 2: 11, 3: 3}

    @pytest.mark.parametrize("j", sorted(COLD_HULLS))
    def test_cold_audit_takes_no_more_hulls(self, capsys, tmp_path, monkeypatch, j):
        # Sets of size 0 and n take no shadow hull, so j = 0 and j = n hull
        # the pieces only, all in dimension 3.
        from cornervol import antiblocking
        from cornervol import io as cio

        assert main(["gen", "--style", "glued", "--dim", "3", "--seed", "2028"]) == 0
        path = tmp_path / "g.json"
        path.write_text(capsys.readouterr().out)
        monkeypatch.setattr(geometry, "_hull_cache", {})
        monkeypatch.setattr(cio, "_assembly_cache", {})
        for memo in (geometry.negate, mixed.volume_polynomial,
                     mixed._cayley_coeffs, antiblocking.normalized_shadow_volumes):
            memo.cache_clear()
        dims = []
        real = hull_mod.hull_of_points

        def recording(points, dim):
            dims.append(dim)
            return real(points, dim)

        monkeypatch.setattr(hull_mod, "hull_of_points", recording)
        monkeypatch.setattr(geometry, "hull_of_points", recording)
        assert main(["audit", str(path), "--j", str(j)]) == EXIT_OK
        assert len(dims) <= self.COLD_HULLS[j]
        if j in (0, 3):
            assert dims == [3] * 3

    CAP_ERROR = ("error: dimension 7 exceeds cap 6 "
                 "(set CORNER_MIXVOL_MAX_DIM to override, at your own risk)\n")

    @staticmethod
    def record_hulls(monkeypatch) -> list:
        from cornervol import io as cio

        monkeypatch.delenv("CORNER_MIXVOL_MAX_DIM", raising=False)
        monkeypatch.setattr(geometry, "_hull_cache", {})
        monkeypatch.setattr(cio, "_assembly_cache", {})
        calls = []
        real = hull_mod.hull_of_points

        def recording(points, dim):
            calls.append(dim)
            return real(points, dim)

        monkeypatch.setattr(hull_mod, "hull_of_points", recording)
        monkeypatch.setattr(geometry, "hull_of_points", recording)
        return calls

    @pytest.mark.parametrize("command", ["audit", "audit-inconsistent", "audit-empty", "mixvol",
                                         "decompose", "decompose-generators"])
    def test_over_cap_file_takes_no_hull(self, capsys, tmp_path, monkeypatch, command):
        # ``from_points`` meets the cap before its hull, and ``ab_hull`` and
        # the orthant enumeration before they build anything, so an over-cap
        # file is refused before its first hull, ahead of any fault in its
        # pieces, with the cap's message.  ``decompose`` exits 2, not 3: the
        # cap is no verdict on anti-blocking inputs.
        from itertools import product

        n = 7
        simplex = {"dim": n, "vertices": [[str(int(i == k)) for i in range(n)]
                                          for k in range(-1, n)]}
        pieces = {"".join(s): simplex for s in product("+-", repeat=n)}
        if command == "audit-inconsistent":
            pieces["+" * n] = {"dim": n, "vertices": [["0"] * n, ["2"] + ["0"] * (n - 1)]}
        files = {"mixvol": simplex, "decompose": simplex,
                 "decompose-generators": {"dim": n, "generators": [["1"] * n]},
                 "audit-empty": {"dim": n, "pieces": {}}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(files.get(command, {"dim": n, "pieces": pieces})))
        calls = self.record_hulls(monkeypatch)
        name = command.split("-")[0]
        argv = [name, str(path)] + ([str(path)] if name in ("mixvol", "decompose") else [])
        assert run(capsys, *argv, "--j", "1") == (EXIT_PARSE, "", self.CAP_ERROR)
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ["godbersen", "--dim", "7", "--trials", "0"],
        ["godbersen", "--dim", "7", "--family", "cube"],
        ["gen", "--dim", "7"],
        ["gen", "--dim", "7", "--family", "cross"],
        ["gen", "--family", "equality-1", "--alphas", "1,1,1,1,1,1,1"],
        ["simplex", "--alphas", "1,1,1,1,1,1,1", "--j", "2"],
    ], ids=" ".join)
    def test_over_cap_flag_takes_no_hull(self, capsys, monkeypatch, argv):
        # A dimension given on the command line meets the same cap before
        # anything is built, even when nothing would be (``--trials 0``, or
        # the closed forms of ``simplex``).
        calls = self.record_hulls(monkeypatch)
        assert run(capsys, *argv) == (EXIT_PARSE, "", self.CAP_ERROR)
        assert calls == []

    def test_failed_exact_audit_step_exits_4(self, capsys, tmp_path, monkeypatch):
        assert main(["gen", "--style", "glued", "--dim", "2", "--seed", "9"]) == EXIT_OK
        path = tmp_path / "g.json"
        path.write_text(capsys.readouterr().out)
        real = assembly.mixed_volume_pair
        monkeypatch.setattr(assembly, "mixed_volume_pair", lambda k, t, j: real(k, t, j) + 1)
        code, out, err = run(capsys, "audit", str(path), "--j", "1")
        assert (code, out) == (EXIT_MISMATCH, "")
        assert "exact audit step 'orthant-split' failed" in err

    def test_audit_rejects_invalid_assembly(self, capsys, tmp_path):
        bad = {
            "dim": 2,
            "pieces": {
                "++": {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
                "-+": {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "2"]]},
            },
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "audit", str(path), "--j", "1")
        assert code == EXIT_PARSE
        assert "projection mismatch" in err

    def test_boolean_dimension_exit_2(self, capsys, tmp_path, triangle_file):
        segment = {"dim": 1, "vertices": [["1"], ["0"]]}
        asm = tmp_path / "asm.json"
        asm.write_text(json.dumps({"dim": True, "pieces": {"+": segment, "-": segment}}))
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({**segment, "dim": True}))
        for argv in (["audit", str(asm), "--j", "0"],
                     ["mixvol", str(poly), str(poly), "--j", "0"]):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_PARSE
            assert out == ""
            assert "bad dimension True" in err

    def test_repeated_sign_exit_2(self, capsys, tmp_path):
        # json would keep the second "+" piece and audit it.
        segment = {"dim": 1, "vertices": [["1"], ["0"]]}
        path = tmp_path / "asm.json"
        longer = {**segment, "vertices": [["2"], ["0"]]}
        path.write_text('{"dim": 1, "pieces": {"+": %s, "-": %s, "+": %s}}'
                        % (json.dumps(segment), json.dumps(segment), json.dumps(longer)))
        code, out, err = run(capsys, "audit", str(path), "--j", "0")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: cannot read JSON from {path}: key '+' given twice\n"

    @pytest.mark.parametrize("data, detail", [
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff"),
        (b'{"dim": ' + b"1" * 5000 + b"}", "Exceeds the limit"),
    ], ids=["not-utf-8", "long-integer"])
    def test_undecodable_file_names_the_path_exit_2(self, capsys, tmp_path, data, detail):
        path = tmp_path / "asm.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "audit", str(path), "--j", "0")
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith(f"error: cannot read JSON from {path}: ")
        assert detail in err and len(err.splitlines()) == 1

    def _audit_pieces(self, capsys, tmp_path, pieces):
        path = tmp_path / "asm.json"
        path.write_text(json.dumps({"dim": 2, "pieces": pieces}))
        return run(capsys, "audit", str(path), "--j", "1")

    def test_audit_rejects_pieces_list_exit_2(self, capsys, tmp_path):
        code, out, err = self._audit_pieces(capsys, tmp_path, [])
        assert code == EXIT_PARSE
        assert out == ""
        assert "'pieces' must be an object" in err

    def test_audit_rejects_non_downclosed_piece(self, capsys, tmp_path):
        code, out, err = self._audit_pieces(capsys, tmp_path, {
            "++": {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
            "+-": {"dim": 2, "vertices": [["1", "0"], ["0", "1"]]},
        })
        assert code == EXIT_PARSE
        assert out == ""
        assert "piece at +- is not anti-blocking" in err

    def test_audit_rejects_exponent_exit_2(self, capsys, tmp_path):
        # Read as a Fraction, the coordinate would make audit compute 10**999999999.
        code, out, err = self._audit_pieces(capsys, tmp_path, {
            "++": {"dim": 2, "vertices": [["0", "0"], ["1e999999999", "0"], ["0", "1"]]},
        })
        assert code == EXIT_PARSE
        assert out == ""
        assert "bad rational '1e999999999'" in err

    def test_audit_rejects_negative_coordinate_piece(self, capsys, tmp_path):
        code, out, err = self._audit_pieces(capsys, tmp_path, {
            "++": {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
            "-+": {"dim": 2, "vertices": [["0", "0"], ["-1", "0"], ["0", "1"]]},
        })
        assert code == EXIT_PARSE
        assert out == ""
        assert "negative coordinate" in err


class TestSourceFlags:
    """A flag the chosen body source does not read is refused, not dropped."""

    @pytest.mark.parametrize("argv, flag", [
        (["gen", "--family", "equality-1", "--alphas", "1,2", "--beta", "3"], "--beta"),
        (["gen", "--family", "equality-1", "--alphas", "1,2", "--dim", "5"], "--dim"),
        (["gen", "--family", "equality-2", "--alphas", "1,2", "--beta", "1", "--seed", "4"],
         "--seed"),
        (["gen", "--family", "cube", "--alphas", "1,2"], "--alphas"),
        (["gen", "--family", "cross", "--style", "glued"], "--style"),
        (["gen", "--beta", "1"], "--beta"),
        (["godbersen", "--family", "cube", "--dim", "2", "--trials", "5"], "--trials"),
        (["godbersen", "--family", "cross", "--seed", "3"], "--seed"),
        (["godbersen", "--family", "equality-1", "--style", "glued"], "--style"),
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else x)
    def test_unread_flag_exits_2(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith(f"error: {flag} is not read by ")

    def test_config_prints_the_resolved_defaults(self, capsys):
        code, out, _ = run(capsys, "godbersen", "--family", "cube", "--dim", "3")
        assert code == EXIT_OK
        assert json.loads(out)["config"] == {"seed": 0, "dim": 3, "trials": 10,
                                             "style": "unconditional", "family": "cube"}

    def test_gen_defaults(self, capsys):
        assert run(capsys, "gen") == run(capsys, "gen", "--seed", "0", "--dim", "2",
                                         "--style", "unconditional")


class TestSimplexCommand:
    def test_lemma_value(self, capsys):
        code, out, _ = run(capsys, "simplex", "--alphas", "3,2,1", "--j", "2",
                           "--cross-check")
        assert code == EXIT_OK
        assert out.strip() == "1"

    def test_corollary_value(self, capsys):
        code, out, _ = run(capsys, "simplex", "--alphas", "2,1", "--betas", "1,3",
                           "--j", "1", "--cross-check")
        assert code == EXIT_OK
        assert out.strip() == "3"

    def test_rational_alphas(self, capsys):
        code, out, _ = run(capsys, "simplex", "--alphas", "1/2,1/3", "--j", "2",
                           "--cross-check")
        assert code == EXIT_OK
        assert out.strip() == "1/12"

    def test_bad_alphas(self, capsys):
        code, _, _ = run(capsys, "simplex", "--alphas", "1,x", "--j", "0")
        assert code == EXIT_PARSE

    def test_zero_denominator_alpha(self, capsys):
        # A ParseError is a ValueError, which main reports with exit 2.
        assert run(capsys, "simplex", "--alphas", "1/0", "--j", "0") == (
            EXIT_PARSE, "", "error: bad rational '1/0'\n")

    @pytest.mark.parametrize("betas, message", [
        ("", "need as many betas as alphas"),
        (",", "--betas ',' has an empty entry"),
    ], ids=["''", "','"])
    def test_betas_without_a_value_exit_2(self, capsys, betas, message):
        # An empty --betas lists no beta; it does not fall back to the lemma.
        assert run(capsys, "simplex", "--alphas", "1,2", "--betas", betas, "--j", "1") == (
            EXIT_PARSE, "", f"error: {message}\n")

    @pytest.mark.parametrize("value", ["1,,2", "1,", ",2"])
    @pytest.mark.parametrize("argv", [
        ("simplex", "--alphas", "{}", "--j", "1"),
        ("simplex", "--alphas", "1,2", "--betas", "{}", "--j", "1"),
        ("gen", "--family", "equality-1", "--alphas", "{}"),
    ], ids=["simplex --alphas", "simplex --betas", "gen --alphas"])
    def test_empty_list_entry_exit_2(self, capsys, argv, value):
        # An empty entry is refused, not skipped: "1,,2" would read as the
        # two alphas 1 and 2.
        flag = argv[argv.index("{}") - 1]
        argv = [value if a == "{}" else a for a in argv]
        assert run(capsys, *argv) == (
            EXIT_PARSE, "", f"error: {flag} {value!r} has an empty entry\n")

    def test_cross_check_disagreement_exit_4(self, capsys, monkeypatch):
        real = cli.mixed_volume_pair
        monkeypatch.setattr(cli, "mixed_volume_pair", lambda k, t, j: real(k, t, j) + 1)
        assert run(capsys, "simplex", "--alphas", "3,2,1", "--j", "2", "--cross-check") == (
            EXIT_MISMATCH, "", "error: cross-check disagreement: closed-form=1 engine=2\n")


class TestDecompose:
    def test_values_and_cross_check(self, capsys, tmp_path):
        k = tmp_path / "k.json"
        k.write_text(json.dumps({"dim": 2, "kind": "anti-blocking",
                                 "generators": [["2", "0"], ["1", "1"]]}))
        t = tmp_path / "t.json"
        t.write_text(json.dumps({"dim": 2, "kind": "anti-blocking",
                                 "generators": [["1", "2"]]}))
        code, out, _ = run(capsys, "decompose", str(k), str(t), "--cross-check")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["cross_checked"]
        assert set(rep["opposite_mixed"]) == {"0", "1", "2"}

    @pytest.mark.parametrize("gens", [5, "12", {"1": "1"}, None], ids=repr)
    def test_generators_not_a_list_exit_2(self, capsys, tmp_path, triangle_file, gens):
        bad = tmp_path / "gens.json"
        bad.write_text(json.dumps({"dim": 2, "generators": gens}))
        code, _, err = run(capsys, "decompose", str(bad), triangle_file)
        assert code == EXIT_PARSE
        assert "'generators' must be a list of points" in err

    def test_cross_check_disagreement_exit_4(self, capsys, monkeypatch, square_file,
                                             triangle_file):
        # The engine's V(K[1], -T[1]) skewed: the per-j check fails first.
        real = cli.mixed_volume_pair
        monkeypatch.setattr(cli, "mixed_volume_pair", lambda k, t, j: real(k, t, j) + 1)
        assert run(capsys, "decompose", square_file, triangle_file, "--cross-check") == (
            EXIT_MISMATCH, "",
            "error: cross-check disagreement at j=0: decomposition=1/2 engine=3/2\n")

    def test_join_volume_disagreement_exit_4(self, capsys, monkeypatch, square_file,
                                             triangle_file):
        # Only the hull's volume skewed: every mixed volume agrees, the join does not.
        real = cli.volume
        monkeypatch.setattr(cli, "volume", lambda p: real(p) + 1)
        assert run(capsys, "decompose", square_file, triangle_file, "--cross-check") == (
            EXIT_MISMATCH, "", "error: join volume disagreement: decomposition=5/2 hull=7/2\n")

    def test_non_ab_input_exit_3(self, capsys, tmp_path, triangle_file):
        bad = tmp_path / "seg.json"
        bad.write_text(json.dumps({"dim": 2, "vertices": [["1", "0"], ["0", "1"]]}))
        code, _, err = run(capsys, "decompose", str(bad), triangle_file)
        assert code == EXIT_INAPPLICABLE
        assert "not down-closed" in err

    def test_negative_coordinate_input_exit_3(self, capsys, tmp_path, triangle_file):
        bad = tmp_path / "neg.json"
        bad.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"], ["-1", "0"], ["0", "1"]]}))
        code, _, err = run(capsys, "decompose", triangle_file, str(bad))
        assert code == EXIT_INAPPLICABLE
        assert "not down-closed" in err


class TestExitCodeContract:
    def test_violation_code_distinct(self):
        # The code for a violated inequality is reserved and distinct from the
        # operational failure codes.
        assert EXIT_VIOLATION == 1
        assert len({EXIT_OK, EXIT_VIOLATION, EXIT_PARSE, EXIT_INAPPLICABLE,
                    EXIT_MISMATCH, EXIT_INTERNAL}) == 6

    def test_engine_self_check_failure_exit_5(self, capsys, monkeypatch, tmp_path):
        real = mixed.triangulate

        def doubled(points, dim):
            cells, denom = real(points, dim)
            return [(ids, 2 * det) for ids, det in cells], denom

        monkeypatch.setattr(mixed, "triangulate", doubled)
        # A pair no other test uses, so the polynomial cache cannot answer.
        k = tmp_path / "k.json"
        k.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"], ["3", "0"], ["0", "5"]]}))
        code, out, err = run(capsys, "mixvol", str(k), str(k), "--j", "1")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err.startswith("error: internal:") and len(err.splitlines()) == 1

    def test_generation_failure_exit_5(self, capsys, monkeypatch):
        # A generated assembly that fails validation is a fault, reported
        # once: there is no retry.
        calls = []

        def reject(*args, **kwargs):
            calls.append(args)
            raise AssemblyError("projection mismatch")

        monkeypatch.setattr(assembly, "assemble", reject)
        code, out, err = run(capsys, "gen", "--style", "glued", "--dim", "2")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err.startswith("error: internal: generated assembly failed validation")
        assert len(err.splitlines()) == 1
        assert len(calls) == 1

    def test_engine_disagreement_keeps_exit_4(self, capsys, monkeypatch):
        from cornervol import EngineDisagreementError

        def disagree(*args, **kwargs):
            raise EngineDisagreementError("orthant sum != direct hull")

        monkeypatch.setattr(cli, "random_assembly", disagree)
        code, _, _ = run(capsys, "gen", "--style", "glued", "--dim", "2")
        assert code == EXIT_MISMATCH

    def test_out_file_writing(self, capsys, tmp_path, triangle_file):
        out_path = tmp_path / "result.txt"
        code, out, _ = run(capsys, "mixvol", triangle_file, triangle_file,
                           "--j", "0", "--out", str(out_path))
        assert code == EXIT_OK
        assert out == ""
        assert out_path.read_text().strip() == "1/2"

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        # Exit 1 would read as a violated inequality.
        out_path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "gen", "--out", str(out_path))
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert len(err.splitlines()) == 1
        assert not out_path.parent.exists()


class TestModuleEntryPoint:
    """``python -m cornervol`` runs ``cli.main`` and exits with its code."""

    @pytest.mark.parametrize("argv, code", [
        (["godbersen", "--family", "cube", "--dim", "2"], EXIT_OK),
        (["godbersen", "--dim", "9"], EXIT_PARSE),
    ])
    def test_exit_code_passes_through(self, capsys, monkeypatch, argv, code):
        monkeypatch.delenv("CORNER_MIXVOL_MAX_DIM", raising=False)
        monkeypatch.setattr("sys.argv", ["cornervol"] + argv)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("cornervol", run_name="__main__")
        assert exc.value.code == code


class TestParserReuse:
    """One parser serves every ``main`` call; no call's flags leak into the next."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_godbersen_defaults_after_glued(self, capsys):
        code, out, _ = run(capsys, "godbersen", "--style", "glued", "--trials", "1",
                           "--seed", "3")
        assert code == EXIT_OK
        assert json.loads(out)["config"]["style"] == "glued"
        code, out, _ = run(capsys, "godbersen")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["config"] == {"seed": 0, "dim": 2, "trials": 10,
                                 "style": "unconditional", "family": None}
        assert {rec["style"] for rec in rep["records"]} == {"unconditional"}

    def test_mixvol_cross_check_does_not_stick(self, capsys, monkeypatch,
                                               square_file, triangle_file):
        probes = []
        real = cli.volume_polynomial_by_probes

        def counting(k, t):
            probes.append((k, t))
            return real(k, t)

        monkeypatch.setattr(cli, "volume_polynomial_by_probes", counting)
        assert run(capsys, "mixvol", square_file, triangle_file, "--j", "1",
                   "--cross-check")[:2] == (EXIT_OK, "1\n")
        assert len(probes) == 1
        assert run(capsys, "mixvol", square_file, triangle_file, "--j", "1")[:2] == (EXIT_OK, "1\n")
        assert len(probes) == 1
