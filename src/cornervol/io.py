"""JSON schemas for polytopes, anti-blocking bodies, and orthant assemblies.

Rationals are serialized as exact strings ("3", "-1/2"); vertex lists are
emitted in canonical order, so parse -> serialize round-trips are
byte-identical on canonical objects.  A canonical vertex list that the process
has already hulled loads without another hull (``VPolytope.from_points``), so
a file loaded again costs no piece hull.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .antiblocking import AntiBlockingBody, ab_hull
from .assembly import AssemblyError, OrthantAssembly, assemble, sign_to_str
from .geometry import VPolytope, convex_hull


class ParseError(ValueError):
    pass


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    try:
        return Fraction(str(s).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}") from exc


def _vec_out(v) -> list[str]:
    return [format_rational(x) for x in v]


def _vec_in(raw, dim: int) -> tuple[Fraction, ...]:
    if not isinstance(raw, (list, tuple)) or len(raw) != dim:
        raise ParseError(f"vertex {raw!r} does not have {dim} coordinates")
    return tuple(parse_rational(x) for x in raw)


def _dim_in(dim) -> int:
    # bool is an int subclass, so JSON true would otherwise load as dimension 1.
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"bad dimension {dim!r}")
    return dim


def polytope_to_obj(p: VPolytope) -> dict:
    return {"dim": p.dim, "vertices": [_vec_out(v) for v in p.vertices]}


def polytope_from_obj(obj) -> VPolytope:
    if not isinstance(obj, dict) or "dim" not in obj or "vertices" not in obj:
        raise ParseError("polytope object needs 'dim' and 'vertices'")
    dim = _dim_in(obj["dim"])
    verts = obj["vertices"]
    if not isinstance(verts, list) or not verts:
        raise ParseError("empty vertex list")
    return convex_hull([_vec_in(v, dim) for v in verts], dim)


def ab_to_obj(body: AntiBlockingBody) -> dict:
    out = polytope_to_obj(body.body)
    out["kind"] = "anti-blocking"
    return out


def ab_from_obj(obj) -> AntiBlockingBody:
    if isinstance(obj, dict) and "generators" in obj:
        dim = _dim_in(obj.get("dim"))
        gens = [_vec_in(g, dim) for g in obj["generators"]]
        if not gens:
            raise ParseError("empty generator list")
        return ab_hull(gens, dim)
    return AntiBlockingBody(polytope_from_obj(obj))


def sign_from_str(s: str, dim: int) -> tuple[int, ...]:
    if len(s) != dim or any(c not in "+-" for c in s):
        raise ParseError(f"bad sign string {s!r} for dimension {dim}")
    return tuple(1 if c == "+" else -1 for c in s)


def assembly_to_obj(a: OrthantAssembly) -> dict:
    return {
        "dim": a.dim,
        "pieces": {
            sign_to_str(sign): polytope_to_obj(piece.body) for sign, piece in a.pieces
        },
    }


def assembly_from_obj(obj) -> OrthantAssembly:
    if not isinstance(obj, dict) or "dim" not in obj or "pieces" not in obj:
        raise ParseError("assembly object needs 'dim' and 'pieces'")
    dim = _dim_in(obj["dim"])
    if not isinstance(obj["pieces"], dict):
        raise ParseError("assembly 'pieces' must be an object keyed by sign strings")
    pieces = {}
    for key, raw in obj["pieces"].items():
        sign = sign_from_str(key, dim)
        poly = polytope_from_obj(raw)
        try:
            pieces[sign] = AntiBlockingBody(poly)
        except ValueError as exc:
            raise AssemblyError(f"piece at {key} is not anti-blocking: {exc}") from exc
    return assemble(dim, pieces)


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc
