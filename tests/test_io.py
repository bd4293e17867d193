"""JSON schemas: exact rational strings, canonical round-trips."""

import json
from fractions import Fraction as F

import pytest

from cornervol import ab_hull, convex_hull, equality_family, geometry, random_assembly
from cornervol import hull as hull_mod
from cornervol.geometry import VPolytope, hull_data
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


def test_redundant_memoized_list_loads_to_its_hull():
    # (1, 0) is the midpoint of an edge.  The raw polytope on all four points
    # sits in the hull memo with three vertices, so the list is not a hit.
    verts = [["0", "0"], ["0", "2"], ["1", "0"], ["2", "0"]]
    raw = VPolytope(2, tuple(tuple(F(x) for x in v) for v in verts))
    assert len(hull_data(raw).vertices) == 3
    p = polytope_from_obj({"dim": 2, "vertices": verts})
    assert p == convex_hull([(0, 0), (0, 2), (2, 0)])


def test_reloaded_assembly_takes_no_hull(monkeypatch):
    a = random_assembly("io-reload", 3, "glued")
    text = dumps(assembly_to_obj(a))
    calls = []
    real = hull_mod.hull_of_points

    def counting(points, dim):
        calls.append(dim)
        return real(points, dim)

    monkeypatch.setattr(hull_mod, "hull_of_points", counting)
    monkeypatch.setattr(geometry, "hull_of_points", counting)
    # An empty memo, as in a process that has not seen these pieces yet.
    monkeypatch.setattr(geometry, "_hull_cache", {})
    first = assembly_from_obj(json.loads(text))
    # Equal pieces share one hull.
    assert len(calls) >= len({piece.body for _, piece in a.pieces}) > 1
    calls.clear()
    again = assembly_from_obj(json.loads(text))
    assert calls == []
    assert again == first == a


def test_assembly_pieces_must_be_an_object():
    for pieces in ([], "++", None):
        with pytest.raises(ParseError, match="'pieces' must be an object"):
            assembly_from_obj({"dim": 2, "pieces": pieces})


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
    from cornervol import antiblocking

    calls = []
    real = antiblocking.validate_ab

    def counting(poly):
        calls.append(poly)
        return real(poly)

    monkeypatch.setattr(antiblocking, "validate_ab", counting)
    a = random_assembly("io-once", 2, "glued")
    calls.clear()
    assembly_from_obj(json.loads(dumps(assembly_to_obj(a))))
    assert len(calls) == len(a.pieces)


@pytest.mark.parametrize("load, obj", [
    (polytope_from_obj, {"dim": True, "vertices": [["1"], ["0"]]}),
    (ab_from_obj, {"dim": True, "vertices": [["1"], ["0"]]}),
    (ab_from_obj, {"dim": True, "generators": [["1"]]}),
    (assembly_from_obj, {"dim": True, "pieces": {"+": {"dim": 1, "vertices": [["1"], ["0"]]}}}),
], ids=["polytope", "ab", "ab-generators", "assembly"])
def test_boolean_dimension_rejected(load, obj):
    # JSON true is a Python bool, an int subclass equal to 1.
    with pytest.raises(ParseError, match="bad dimension True"):
        load(obj)
