"""Outside-in layer trace for the benchmark.

Spans are recorded by wrapping public cornervol functions from the outside;
nothing inside the program changes.  Modules import names directly (``mixed``
binds ``minkowski_sum``; ``geometry``, ``antiblocking`` and ``assembly`` bind
``hull_of_points``), so each wrapper is rebound in every ``cornervol`` module
that holds the original function object, not only in the defining module.
The linalg kernels called inside the hull loop (``det_int``,
``hyperplane_normal``) stay unwrapped: their calls are too many and too short.

A span is ``[name, start, end, parent, item, points_in, points_out, ok]``:
``parent`` indexes the enclosing span (-1 for none), ``item`` counts the
``cli.main`` calls made so far, ``ok`` is false when the call raised.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

TARGETS = (
    ("cli", "main"),
    ("hull", "hull_of_points"),
    ("geometry", "convex_hull"),
    ("geometry", "minkowski_sum"),
    ("geometry", "volume"),
    ("geometry", "member"),
    ("mixed", "volume_polynomial"),
    ("linalg", "solve_linear"),
    ("antiblocking", "validate_ab"),
    ("antiblocking", "projected_volume"),
    ("antiblocking", "ab_hull"),
    ("assembly", "assemble"),
    ("assembly", "random_assembly"),
    ("assembly", "godbersen_check"),
    ("assembly", "proof_chain_audit"),
    ("io", "assembly_from_obj"),
    ("io", "dumps"),
)


def _sized(points) -> int:
    return len(points) if hasattr(points, "__len__") else 0


# Work counts taken at the boundary: points handed in, points handed back.
_POINTS_IN = {
    "hull.hull_of_points": lambda args: _sized(args[0]),
    "geometry.minkowski_sum": lambda args: len(args[0].vertices) * len(args[1].vertices),
}
_POINTS_OUT = {
    "hull.hull_of_points": lambda result: len(result.vertices),
}


class Tracer:
    """In-memory span recorder; ``spans`` is read once when the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._items = 0

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "cornervol" or name.startswith("cornervol.")]
        for module_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"cornervol.{module_name}"], fn_name)
            wrapped = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    setattr(module, attr, wrapped)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_in, count_out = _POINTS_IN.get(name), _POINTS_OUT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                self._items += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._items - 1,
                    count_in(args) if count_in else 0, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[7] = True
            if count_out:
                span[6] = count_out(result)
            return result

        return wrapper


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# A cached function missed when its span has a child span of this function.
_MISS_CHILD = {
    "geometry.volume": "hull.hull_of_points",
    "mixed.volume_polynomial": "geometry.minkowski_sum",
    "antiblocking.projected_volume": "hull.hull_of_points",
}


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one run's spans, as ``{name: (value, unit)}``.

    calls, busy_s and the point counts cover outermost spans of a function
    (a recursive call is part of its caller's work); self_s is a span's time
    minus its child spans, summed over every span of the layer.  A cached
    function counts a hit when its span has no child span of the function
    it calls on a miss.
    """
    child_time = [0.0] * len(spans)
    children: set[tuple[int, str]] = set()
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            children.add((parent, name))

    def outermost(i: int) -> bool:
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    calls, ok, misses = Counter(), Counter(), Counter()
    points_in, points_out = Counter(), Counter()
    busy: defaultdict[str, float] = defaultdict(float)
    self_s: defaultdict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _, n_in, n_out, fine) in enumerate(spans):
        self_s[name.split(".")[0]] += (end - start) - child_time[i]
        if not outermost(i):
            continue
        calls[name] += 1
        busy[name] += end - start
        points_in[name] += n_in
        points_out[name] += n_out
        ok[name] += fine
        if (i, _MISS_CHILD.get(name)) in children:
            misses[name] += 1

    def hit_ratio(name: str) -> tuple[float, str]:
        return _ratio(calls[name] - misses[name], calls[name]), "ratio"

    hull, mink, member = "hull.hull_of_points", "geometry.minkowski_sum", "geometry.member"
    poly, solve = "mixed.volume_polynomial", "linalg.solve_linear"
    validate, proj = "antiblocking.validate_ab", "antiblocking.projected_volume"
    assemble = "assembly.assemble"
    return {
        f"{hull}.calls": (calls[hull], "count"),
        f"{hull}.self_s": (self_s["hull"], "s"),
        f"{hull}.points_in": (points_in[hull], "count"),
        f"{hull}.vertices_out": (points_out[hull], "count"),
        "hull.extreme_ratio": (_ratio(points_out[hull], points_in[hull]), "ratio"),
        f"{mink}.calls": (calls[mink], "count"),
        f"{mink}.busy_s": (busy[mink], "s"),
        f"{mink}.points_in": (points_in[mink], "count"),
        "geometry.volume.calls": (calls["geometry.volume"], "count"),
        "geometry.volume.hit_ratio": hit_ratio("geometry.volume"),
        f"{member}.calls": (calls[member], "count"),
        f"{member}.busy_s": (busy[member], "s"),
        "geometry.self_s": (self_s["geometry"], "s"),
        f"{poly}.calls": (calls[poly], "count"),
        f"{poly}.busy_s": (busy[poly], "s"),
        f"{poly}.hit_ratio": hit_ratio(poly),
        "mixed.self_s": (self_s["mixed"], "s"),
        f"{solve}.calls": (calls[solve], "count"),
        f"{solve}.busy_s": (busy[solve], "s"),
        f"{validate}.calls": (calls[validate], "count"),
        f"{validate}.busy_s": (busy[validate], "s"),
        f"{proj}.calls": (calls[proj], "count"),
        f"{proj}.hit_ratio": hit_ratio(proj),
        "antiblocking.ab_hull.busy_s": (busy["antiblocking.ab_hull"], "s"),
        "antiblocking.self_s": (self_s["antiblocking"], "s"),
        f"{assemble}.calls": (calls[assemble], "count"),
        f"{assemble}.busy_s": (busy[assemble], "s"),
        f"{assemble}.accept_ratio": (_ratio(ok[assemble], calls[assemble]), "ratio"),
        "assembly.random_assembly.busy_s": (busy["assembly.random_assembly"], "s"),
        "assembly.godbersen_check.busy_s": (busy["assembly.godbersen_check"], "s"),
        "assembly.proof_chain_audit.busy_s": (busy["assembly.proof_chain_audit"], "s"),
        "assembly.self_s": (self_s["assembly"], "s"),
        "io.assembly_from_obj.busy_s": (busy["io.assembly_from_obj"], "s"),
        "io.dumps.busy_s": (busy["io.dumps"], "s"),
        "io.self_s": (self_s["io"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.main.busy_s": (busy["cli.main"], "s"),
    }
