"""Command-line interface: behavior, exit codes, deterministic reports."""

import dataclasses
import json

import pytest

from cornervol import cli, mixed
from cornervol.assembly import GenerationError
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

    def test_cube_family_strict(self, capsys):
        code, out, _ = run(capsys, "godbersen", "--family", "cube", "--dim", "3")
        assert code == EXIT_OK
        rep = json.loads(out)
        for rec in rep["records"]:
            if 0 < rec["j"] < 3:
                assert not rec["is_equality"]
        # -C = C for the cube, so each ratio is 1 / C(3, j); the smallest is 1/3.
        assert rep["summary"]["min_ratio"] == "1/3"

    def test_dimension_cap(self, capsys):
        code, _, err = run(capsys, "godbersen", "--dim", "7", "--trials", "1")
        assert code == EXIT_PARSE
        assert "CORNER_MIXVOL_MAX_DIM" in err

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

    def _audit_pieces(self, capsys, tmp_path, pieces):
        path = tmp_path / "asm.json"
        path.write_text(json.dumps({"dim": 2, "pieces": pieces}))
        return run(capsys, "audit", str(path), "--j", "1")

    def test_audit_rejects_non_downclosed_piece(self, capsys, tmp_path):
        code, out, err = self._audit_pieces(capsys, tmp_path, {
            "++": {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
            "+-": {"dim": 2, "vertices": [["1", "0"], ["0", "1"]]},
        })
        assert code == EXIT_PARSE
        assert out == ""
        assert "piece at +- is not anti-blocking" in err

    def test_audit_rejects_negative_coordinate_piece(self, capsys, tmp_path):
        code, out, err = self._audit_pieces(capsys, tmp_path, {
            "++": {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
            "-+": {"dim": 2, "vertices": [["0", "0"], ["-1", "0"], ["0", "1"]]},
        })
        assert code == EXIT_PARSE
        assert out == ""
        assert "negative coordinate" in err


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
        def give_up(*args, **kwargs):
            raise GenerationError("failed to generate a valid glued assembly")

        monkeypatch.setattr(cli, "random_assembly", give_up)
        code, _, err = run(capsys, "gen", "--style", "glued", "--dim", "2")
        assert code == EXIT_INTERNAL
        assert err == "error: internal: failed to generate a valid glued assembly\n"

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
