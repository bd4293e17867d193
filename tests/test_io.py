"""JSON schemas: exact rational strings, canonical round-trips."""

import json
import sys
from fractions import Fraction as F
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cornervol import ab_hull, convex_hull, equality_family, geometry, random_assembly
from cornervol import hull as hull_mod
from cornervol import io as cio
from cornervol.assembly import mask_to_str
from cornervol.geometry import VPolytope, hull_data, volume
from cornervol.io import (
    ParseError,
    ab_from_obj,
    ab_to_obj,
    assembly_from_obj,
    assembly_to_obj,
    dumps,
    format_rational,
    load_json_file,
    parse_rational,
    polytope_from_obj,
    polytope_to_obj,
    mask_from_str,
)


# What a report holds, and the escapes and non-ASCII text json writes as \u.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@given(json_values)
@example({"a": {}, "b": [], "c": [[], {}]})
@example({"\u00e9\n\"\\": "\u2603\x00", "": -3})
@settings(max_examples=300, deadline=None)
def test_dumps_is_the_json_module_text(obj):
    assert dumps(obj) == json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


@given(json_values, st.floats())
@settings(max_examples=50, deadline=None)
def test_dumps_refuses_a_float(obj, x):
    with pytest.raises(TypeError):
        dumps([obj, {"x": x}])


def test_rational_strings():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-1, 2)) == "-1/2"
    assert parse_rational("3") == 3
    assert parse_rational("-1/2") == F(-1, 2)
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational("x")


def test_exponent_refused():
    # Fraction would compute 10**999999999 for the first two.
    for s in ("1e999999999", "1e-999999999", "1E5", "2.5e3", " 1e2 "):
        with pytest.raises(ParseError, match=f"bad rational {s!r}: exponents are not accepted"):
            parse_rational(s)
    # Everything else Fraction reads is still accepted, JSON numbers included.
    for s, x in (("1.5", F(3, 2)), (" -3/4 ", F(-3, 4)), ("+7", 7), ("007", 7),
                 ("1_000", 1000), (".5", F(1, 2)), ("-0", 0), (1e-05, F(1, 100000)),
                 (1e16, 10 ** 16)):
        assert parse_rational(s) == x
    # Other text with an e is not an exponent and keeps the plain message.
    for s in ("one", "1e", "e5", "1/2e3"):
        with pytest.raises(ParseError, match=f"^bad rational {s!r}$"):
            parse_rational(s)


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
    # "-" stands at the set bits of the mask, and each converter undoes the
    # other for every orthant of every dimension up to the cap.
    assert mask_to_str(0b010, 3) == "+-+"
    assert mask_from_str("+-+", 3) == 0b010
    for n in range(1, 7):
        assert [mask_from_str(mask_to_str(m, n), n) for m in range(1 << n)] == list(range(1 << n))
    with pytest.raises(ParseError):
        mask_from_str("+-", 3)
    with pytest.raises(ParseError):
        mask_from_str("+0", 2)


def test_assembly_round_trip_bit_exact():
    for a in (equality_family(2, (1, 2), beta1=F(1, 2)),
              random_assembly("io", 2, "glued")):
        text = dumps(assembly_to_obj(a))
        again = assembly_from_obj(json.loads(text))
        assert again == a
        assert dumps(assembly_to_obj(again)) == text


def test_redundant_memoized_list_loads_to_its_hull():
    # (1, 0) is the midpoint of an edge.  The raw polytope on all four points
    # is refused at its hull and never memoized, so the list is no memo hit.
    verts = [["0", "0"], ["0", "2"], ["1", "0"], ["2", "0"]]
    raw = VPolytope(2, tuple(tuple(F(x) for x in v) for v in verts))
    with pytest.raises(ValueError, match=r"holds \(1, 0\), which is no vertex"):
        hull_data(raw)
    assert raw not in geometry._hull_cache
    p = polytope_from_obj({"dim": 2, "vertices": verts})
    assert p == convex_hull([(0, 0), (0, 2), (2, 0)])


def counting_loads(monkeypatch):
    """Count the piece validations, consistency checks and derived hulls
    that loading an assembly and reading its hull run."""
    from cornervol import antiblocking, assembly

    calls = dict.fromkeys(("validate_ab", "_check_consistency", "_derived_hull"), 0)
    for module, name in ((antiblocking, "validate_ab"), (assembly, "_check_consistency"),
                         (assembly, "_derived_hull")):
        def wrapper(*args, name=name, real=getattr(module, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)
    return calls


def box_file(corner):
    """A dim-2 assembly of four squares [0, 2]^2, the one at ++ cut down to
    the vertex ``corner`` in place of (2, 2)."""
    square = [["0", "0"], ["0", "2"], ["2", "0"], ["2", "2"]]
    pieces = {s: {"dim": 2, "vertices": square} for s in ("++", "+-", "-+", "--")}
    pieces["++"] = {"dim": 2, "vertices": square[:3] + [corner]}
    return json.dumps({"dim": 2, "pieces": pieces})


def test_reloaded_assembly_takes_no_hull(monkeypatch):
    # A second load of the same text returns the memoized assembly before any
    # piece is parsed: no rational, no polytope, no hull.
    a = random_assembly("io-reload", 3, "glued")
    text = dumps(assembly_to_obj(a))
    calls = {}

    def counting(module, name):
        calls[name] = 0
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    hull = counting(hull_mod, "hull_of_points")
    monkeypatch.setattr(hull_mod, "hull_of_points", hull)
    monkeypatch.setattr(geometry, "hull_of_points", hull)
    for name in ("parse_rational", "polytope_from_obj"):
        monkeypatch.setattr(cio, name, counting(cio, name))
    monkeypatch.setattr(VPolytope, "__post_init__", counting(VPolytope, "__post_init__"))
    # Empty memos, as in a process that has not seen these pieces yet.
    monkeypatch.setattr(geometry, "_hull_cache", {})
    monkeypatch.setattr(cio, "_assembly_cache", {})
    first = assembly_from_obj(json.loads(text))
    # Equal pieces share one hull.
    assert calls["hull_of_points"] >= len(set(a.pieces)) > 1
    assert calls["parse_rational"] > 0 and calls["__post_init__"] > 0
    assert calls["polytope_from_obj"] == 8
    calls.update(dict.fromkeys(calls, 0))
    again = assembly_from_obj(json.loads(text))
    assert calls == dict.fromkeys(calls, 0)
    assert again == first == a
    assert all(p is q for p, q in zip(again.pieces, first.pieces))


def test_reloaded_assembly_is_the_memoized_one(monkeypatch):
    # A second load of the same text returns the assembly built the first
    # time, with its hull: no validation, no consistency check, no derived hull.
    monkeypatch.setattr(geometry, "_hull_cache", {})
    monkeypatch.setattr(cio, "_assembly_cache", {})
    text = dumps(assembly_to_obj(random_assembly("io-memo", 3, "glued")))
    calls = counting_loads(monkeypatch)
    first = assembly_from_obj(json.loads(text))
    assert first.hull is not None
    assert calls == {"validate_ab": 8, "_check_consistency": 1, "_derived_hull": 1}
    calls.update(dict.fromkeys(calls, 0))
    again = assembly_from_obj(json.loads(text))
    assert again is first and again.hull is first.hull
    assert calls == dict.fromkeys(calls, 0)


def test_respelled_file_loads_to_an_equal_assembly(monkeypatch):
    # "k/1" spells the same coordinate as "k" but another memo key: the
    # respelled file is built anew, to an equal assembly.
    monkeypatch.setattr(cio, "_assembly_cache", {})
    obj = assembly_to_obj(random_assembly("io-respell", 3, "glued"))
    first = assembly_from_obj(obj)
    for piece in obj["pieces"].values():
        piece["vertices"] = [[f"{x}/1" if "/" not in x else x for x in v]
                             for v in piece["vertices"]]
    again = assembly_from_obj(obj)
    assert again == first and again is not first
    assert again.hull == first.hull
    assert len(cio._assembly_cache) == 2
    assert assembly_from_obj(obj) is again


def test_lowered_cap_refuses_a_memoized_file(monkeypatch):
    monkeypatch.setattr(cio, "_assembly_cache", {})
    obj = assembly_to_obj(random_assembly("io-cap", 3, "glued"))
    assert assembly_from_obj(obj) is assembly_from_obj(obj)
    monkeypatch.setenv("CORNER_MIXVOL_MAX_DIM", "2")
    with pytest.raises(ValueError, match="dimension 3 exceeds cap 2"):
        assembly_from_obj(obj)


def test_assembly_memo_misses_on_one_vertex(monkeypatch):
    monkeypatch.setattr(cio, "_assembly_cache", {})
    square = assembly_from_obj(json.loads(box_file(["2", "2"])))
    cut = assembly_from_obj(json.loads(box_file(["2", "1"])))
    assert cut is not square and cut != square
    assert volume(cut.hull) == volume(square.hull) - 1
    assert assembly_from_obj(json.loads(box_file(["2", "2"]))) is square
    assert assembly_from_obj(json.loads(box_file(["2", "1"]))) is cut


@pytest.mark.usefixtures("strict_hull")
def test_strict_checks_bypass_the_assembly_memo(monkeypatch):
    monkeypatch.setattr(cio, "_assembly_cache", {})
    text = box_file(["2", "1"])
    first = assembly_from_obj(json.loads(text))
    calls = counting_loads(monkeypatch)
    again = assembly_from_obj(json.loads(text))
    assert again == first and again is not first
    assert again.hull == first.hull
    # One validation per distinct piece: the cut square and the square.
    assert calls == {"validate_ab": 2, "_check_consistency": 1, "_derived_hull": 1}
    assert cio._assembly_cache == {}


# Every shape of vertex list the loader meets.  "canonical" is the hull's own
# list, which a warm hull memo answers; the others are hulled and must load
# to the same polytope or fail the same way.
LIST_KINDS = ("canonical", "unsorted", "duplicated", "raw", "broken")


@st.composite
def vertex_lists(draw):
    n = draw(st.integers(1, 5))
    rational = draw(st.booleans())
    coord = (st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2, 3))) if rational
             else st.integers(-3, 3))
    points = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=8))
    flat = draw(st.integers(0, n))  # coordinates from this one on are zero
    points = [tuple(x if i < flat else 0 for i, x in enumerate(p)) for p in points]
    kind = draw(st.sampled_from(LIST_KINDS))
    hull = list(convex_hull(points, n).vertices)
    if kind == "canonical":
        verts = hull
    elif kind == "unsorted":
        verts = hull[::-1]
    elif kind == "duplicated":
        verts = sorted(hull + hull[:1])
    else:  # every point, sorted, redundant ones included
        verts = sorted(set(points))
    rows = [[format_rational(x) for x in v] for v in verts]
    if kind == "broken":
        bad = draw(st.sampled_from(("1e3", "x", "1/0", "", "1,2", None)))
        rows[-1][-1:] = [] if bad is None else [bad]
    return n, kind, json.dumps(rows)


@pytest.mark.usefixtures("strict_hull")
@given(vertex_lists())
@settings(max_examples=120, deadline=None)
def test_warm_load_matches_cold_load(case):
    n, _, text = case

    def load():
        try:
            return polytope_from_obj({"dim": n, "vertices": json.loads(text)})
        except ValueError as exc:
            return type(exc), str(exc)

    with patch.object(geometry, "_hull_cache", {}):
        cold = load()
        # Memoize the list as given too.  A redundant list is refused there
        # and stores nothing, so the warm load hulls it as the cold one did.
        try:
            hull_data(VPolytope(n, tuple(tuple(map(parse_rational, v))
                                         for v in json.loads(text))))
        except ValueError:
            pass  # unsorted, duplicated, redundant or broken
        warm = load()
    assert warm == cold


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
    assert len(calls) == len(set(a.pieces))


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


SEGMENT = '{"dim": 1, "vertices": [["1"], ["0"]]}'
LONG = '{"dim": 1, "pieces": {"+": {"dim": 1, "vertices": [["2"], ["0"]]}, "-": %s}}' % SEGMENT
# Files json would read without complaint or with an error that names no file.
UNREADABLE = {
    # json keeps the last copy of a repeated key, so this would load the
    # second "+" piece.
    "repeated-sign": (('{"dim": 1, "pieces": {"+": %s, "-": %s, "+": %s}}'
                       % (SEGMENT, SEGMENT, SEGMENT.replace('"1"', '"2"'))).encode(),
                      "key '+' given twice"),
    "repeated-nested": (LONG.replace('"dim": 1, "vertices"', '"dim": 1, "dim": 1, "vertices"',
                                     1).encode(), "key 'dim' given twice"),
    "not-utf-8": (b"\xff" + LONG.encode(), "'utf-8' codec can't decode byte 0xff"),
    "long-integer": (b'{"dim": ' + b"1" * (sys.get_int_max_str_digits() + 1) + b"}",
                     "Exceeds the limit"),
    "not-json": (b'{"dim": 1,', "Expecting property name"),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_file_is_a_parse_error_naming_it(tmp_path, name):
    data, detail = UNREADABLE[name]
    path = tmp_path / "in.json"
    path.write_bytes(data)
    with pytest.raises(ParseError) as info:
        load_json_file(str(path))
    assert str(info.value).startswith(f"cannot read JSON from {path}: ")
    assert detail in str(info.value)
