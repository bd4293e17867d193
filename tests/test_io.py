"""JSON schemas: exact rational strings, canonical round-trips."""

import json
from fractions import Fraction as F

import pytest

from cornervol import ab_hull, convex_hull, equality_family, random_assembly
from cornervol.io import (
    ParseError,
    ab_from_obj,
    ab_to_obj,
    assembly_from_obj,
    assembly_to_obj,
    dumps,
    format_rational,
    parse_rational,
    polytope_from_obj,
    polytope_to_obj,
    sign_from_str,
    sign_to_str,
)


def test_rational_strings():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-1, 2)) == "-1/2"
    assert parse_rational("3") == 3
    assert parse_rational("-1/2") == F(-1, 2)
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational("x")


def test_polytope_round_trip_bit_exact():
    p = convex_hull([(0, 0), (F(5, 3), 0), (0, F(-7, 2)), (1, -1)])
    text = dumps(polytope_to_obj(p))
    again = polytope_from_obj(json.loads(text))
    assert again == p
    assert dumps(polytope_to_obj(again)) == text


def test_polytope_parse_canonicalizes():
    obj = {"dim": 2, "vertices": [["0", "0"], ["2", "0"], ["1", "0"], ["0", "2"]]}
    p = polytope_from_obj(obj)
    assert len(p.vertices) == 3  # midpoint dropped


def test_polytope_errors():
    with pytest.raises(ParseError):
        polytope_from_obj({"dim": 2})
    with pytest.raises(ParseError):
        polytope_from_obj({"dim": 0, "vertices": [["1"]]})
    with pytest.raises(ParseError):
        polytope_from_obj({"dim": 2, "vertices": [["1"]]})
    with pytest.raises(ParseError):
        polytope_from_obj({"dim": 2, "vertices": []})


def test_ab_round_trip_and_generators():
    body = ab_hull([(2, 0), (1, 1)])
    obj = ab_to_obj(body)
    assert obj["kind"] == "anti-blocking"
    again = ab_from_obj(json.loads(dumps(obj)))
    assert again.body == body.body

    gen_obj = {"dim": 2, "kind": "anti-blocking", "generators": [["2", "0"], ["1", "1"]]}
    assert ab_from_obj(gen_obj).body == body.body


def test_ab_rejects_non_downclosed():
    obj = {"dim": 2, "vertices": [["1", "0"], ["0", "1"]]}
    with pytest.raises(ValueError):
        ab_from_obj(obj)


def test_sign_strings():
    assert sign_to_str((1, -1, 1)) == "+-+"
    assert sign_from_str("+-+", 3) == (1, -1, 1)
    with pytest.raises(ParseError):
        sign_from_str("+-", 3)
    with pytest.raises(ParseError):
        sign_from_str("+0", 2)


def test_assembly_round_trip_bit_exact():
    for a in (equality_family(2, (1, 2), beta1=F(1, 2)),
              random_assembly("io", 2, "glued")):
        text = dumps(assembly_to_obj(a))
        again = assembly_from_obj(json.loads(text))
        assert again == a
        assert dumps(assembly_to_obj(again)) == text


def test_assembly_validation_on_load():
    obj = {
        "dim": 2,
        "pieces": {
            "++": {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
            "-+": {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "2"]]},
            "+-": {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
            "--": {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
        },
    }
    from cornervol import AssemblyError

    with pytest.raises(AssemblyError, match="projection mismatch"):
        assembly_from_obj(obj)


def test_assembly_piece_not_downclosed_on_load():
    obj = {
        "dim": 2,
        "pieces": {
            "++": {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
            "+-": {"dim": 2, "vertices": [["1", "0"], ["0", "1"]]},
        },
    }
    from cornervol import AssemblyError

    with pytest.raises(AssemblyError, match=r"piece at \+- is not anti-blocking"):
        assembly_from_obj(obj)


def test_assembly_load_validates_each_piece_once(monkeypatch):
    from cornervol import antiblocking, assembly

    calls = []
    real = antiblocking.validate_ab

    def counting(poly):
        calls.append(poly)
        return real(poly)

    monkeypatch.setattr(assembly, "validate_ab", counting)
    monkeypatch.setattr(antiblocking, "validate_ab", counting)
    a = random_assembly("io-once", 2, "glued")
    calls.clear()
    assembly_from_obj(json.loads(dumps(assembly_to_obj(a))))
    assert len(calls) == len(a.pieces)
