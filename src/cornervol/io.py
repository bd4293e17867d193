"""JSON schemas for polytopes, anti-blocking bodies, and orthant assemblies.

Rationals are serialized as exact strings ("3", "-1/2"); vertex lists are
emitted in canonical order, so parse -> serialize round-trips are
byte-identical on canonical objects.  A string with an exponent ("1e9") is
refused: the value it spells can be too large to compute.

A vertex list is parsed to ``Fraction``s and hulled by ``convex_hull``; a
canonical list that the process has already hulled is answered by the hull
memo (``VPolytope.from_points``).

An assembly file keys its pieces by sign strings ("+-", "-" at the set bits
of the orthant mask).  ``assembly.mask_to_str`` writes a mask's string and
``mask_from_str`` reads one straight back to its mask; an orthant the file
omits holds the origin, and the ``OrthantAssembly`` constructor checks every
piece.

An assembly file loaded again returns the assembly the process built the
first time.  ``assembly_from_obj`` keys it by the dimension and the canonical
JSON text of the ``pieces`` object, taken before any piece is parsed, so a
reload parses no rational, builds no polytope and runs no ``validate_ab``, no
consistency check and no derived hull: the assembly keeps its ``hull``.  A
file that spells a coordinate another way ("1/1" for "1") is another key, and
loads to an equal assembly.  Only an assembly that passed construction is
stored.  The dimension meets the cap (``geometry.cap_dim``) before the memo
is read, so a lowered cap still refuses the file, before any hull.  The memo
is neither read nor written under ``hull.strict_checks``, so every load runs
every check and oracle.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import hull as _hull
from .antiblocking import AntiBlockingBody, ab_hull
from .assembly import OrthantAssembly, assemble, mask_to_str
from .geometry import VPolytope, cap_dim, convex_hull, origin


class ParseError(ValueError):
    pass


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# A decimal with an exponent, as Fraction reads it: Fraction would compute
# 10**exp, which hangs on a string like "1e999999999".  A JSON number is
# a float by then, whose exponent is at most 308, and is read as before.
_EXPONENT = re.compile(r"[+-]?(\d[\d_]*\.?[\d_]*|\.\d[\d_]*)[eE][+-]?\d[\d_]*")


def parse_rational(s: str) -> Fraction:
    text = str(s).strip()
    if isinstance(s, str) and _EXPONENT.fullmatch(text):
        raise ParseError(f"bad rational {s!r}: exponents are not accepted")
    try:
        return Fraction(text)
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
        if not isinstance(obj["generators"], list):
            raise ParseError("'generators' must be a list of points, not "
                             f"{type(obj['generators']).__name__}")
        gens = [_vec_in(g, dim) for g in obj["generators"]]
        if not gens:
            raise ParseError("empty generator list")
        return ab_hull(gens, dim)
    return AntiBlockingBody(polytope_from_obj(obj))


def mask_from_str(s: str, dim: int) -> int:
    """The orthant mask of a sign string: bit i is set where character i is
    "-".  The inverse of ``assembly.mask_to_str``."""
    if len(s) != dim or any(c not in "+-" for c in s):
        raise ParseError(f"bad sign string {s!r} for dimension {dim}")
    return sum(1 << i for i, c in enumerate(s) if c == "-")


def assembly_to_obj(a: OrthantAssembly) -> dict:
    return {
        "dim": a.dim,
        "pieces": {mask_to_str(m, a.dim): polytope_to_obj(p) for m, p in enumerate(a.pieces)},
    }


# Every assembly this process has loaded, keyed by its dimension and the
# canonical JSON text of its pieces as the file spells them.
_assembly_cache: dict[tuple[int, str], OrthantAssembly] = {}


def assembly_from_obj(obj) -> OrthantAssembly:
    """The assembly that decoded JSON describes, memoized (see the module
    docstring)."""
    if not isinstance(obj, dict) or "dim" not in obj or "pieces" not in obj:
        raise ParseError("assembly object needs 'dim' and 'pieces'")
    dim = cap_dim(_dim_in(obj["dim"]))
    if not isinstance(obj["pieces"], dict):
        raise ParseError("assembly 'pieces' must be an object keyed by sign strings")
    memo = None
    if not _hull.strict_checks:
        memo = (dim, json.dumps(obj["pieces"], sort_keys=True))
        hit = _assembly_cache.get(memo)
        if hit is not None:
            return hit
    pieces = [origin(dim)] * (1 << dim)
    for key, raw in obj["pieces"].items():
        pieces[mask_from_str(key, dim)] = polytope_from_obj(raw)
    assembly = assemble(dim, pieces)
    if memo is not None:
        _assembly_cache[memo] = assembly
    return assembly


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline.

    The text of ``json.dumps(obj, sort_keys=True, separators=(",", ": "),
    indent=1)``, written here because ``indent`` sends ``json`` to its
    pure-Python encoder.  A report holds only dicts with string keys,
    lists, strings, ints, bools and None; anything else, a float included,
    raises TypeError.
    """
    return _encode(obj, "\n") + "\n"


def _encode(x, pad: str) -> str:
    """``x`` as ``dumps`` writes it, at the depth whose line break and
    indent is ``pad``."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = pad + " "
    if isinstance(x, dict):
        if not all(isinstance(k, str) for k in x):
            raise TypeError("JSON object keys must be strings")
        # A string value, the common leaf, is written without a call.
        items = [encode_basestring_ascii(k) + ": "
                 + (encode_basestring_ascii(v) if type(v) is str else _encode(v, inner))
                 for k, v in sorted(x.items())]
        brackets = "{}"
    elif isinstance(x, (list, tuple)):
        items = [encode_basestring_ascii(v) if type(v) is str else _encode(v, inner)
                 for v in x]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _unique_keys(pairs) -> dict:
    """A JSON object's dict, refusing a key given twice (``json`` would keep
    the last copy)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} given twice")
        obj[key] = value
    return obj


def load_json_file(path: str):
    """The file's decoded JSON; any failure to read or decode it, a repeated
    key included, is a ParseError that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc
