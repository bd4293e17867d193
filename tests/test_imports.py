"""Every name a cornervol module imports is used in that module, every
private function, class or method it defines is referenced in the package,
and every public one is referenced, traced by the benchmark or a named oracle.

A name left imported after its last use hides dead code and keeps a
dependency between modules alive for nothing; a private helper left behind by
its last caller is dead code itself, and a public one that only the tests
call is a wrapper the tests can do without.  ``__init__`` is left out: its
imports are the package's public names.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cornervol"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert imported_names(tree) - used_names(tree) == set()


def private_definitions(tree: ast.Module) -> set[str]:
    """Module-level ``_function``s and ``_Class``es, and ``_method``s of classes."""
    names = set()
    for node in tree.body:
        defs = [node]
        if isinstance(node, ast.ClassDef):
            defs += node.body
        names.update(d.name for d in defs
                     if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                     and d.name.startswith("_") and not d.name.startswith("__"))
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    return used_names(tree) | {node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute)}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_private_definition_is_referenced(path):
    # A private helper whose last caller went is dead code; it may be
    # referenced from any module of the package, but tests do not count.
    referenced = set()
    for other in SRC.glob("*.py"):
        referenced |= referenced_names(ast.parse(other.read_text(encoding="utf-8")))
    assert private_definitions(ast.parse(path.read_text(encoding="utf-8"))) - referenced == set()


TRACING = SRC.parents[1] / "perfbench" / "tracing.py"

# Public names that nothing in the package calls, kept as the independent
# routes and closed forms the tests compare the engine against.
ORACLES = {
    "geometry.member": "rational-LP containment, independent of the hull engine",
    "geometry.linear_map": "images under a matrix, for the determinant law of (mixed) volumes",
    "geometry.VPolytope.translate": "translates, for the translation invariance of (mixed) volumes",
    "linalg.rank_rows": "rational row rank, the oracle of rank_int_rows",
    "mixed.mixed_volume_tuple": "polarization over n bodies, the oracle of the two-body engine",
    "mixed.VolumePolynomial.value_at": "the volume polynomial against hulled Minkowski sums",
    "assembly.lab_mixed": "the orthant split of two assemblies (acceptance criterion 5)",
    "assembly.negate_assembly": "-K as an assembly, lab_mixed's partner (criterion 5)",
    "io.ab_to_obj": "the writer of what ab_from_obj reads, for round trips",
    "simplex.fubini_sum_volume": "slice-integration volume of D_n + K (criterion 10)",
    "simplex.sum_decomposition_check": "the sum decomposition identity (criterion 10)",
    "simplex.simplex_sum_series": "closed-form series for Vol(D_n + lam K)",
    "simplex.godbersen_equality_values": "closed forms of the equality gap (criterion 9)",
}


def name_counts(node: ast.AST, attributes_only: bool = False) -> Counter:
    """Uses of each name in the tree as a name or an attribute (``x.name``), or
    as an attribute only."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, kinds))


def public_definitions() -> dict[str, ast.AST]:
    """Public module-level functions and classes, and public methods of those
    classes, as ``module.name`` and ``module.Class.method``."""
    found = {}
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found[f"{path.stem}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                found.update((f"{path.stem}.{node.name}.{d.name}", d) for d in node.body
                             if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"))
    return found


def test_every_public_definition_is_needed():
    # Referenced by the package outside its own definition, traced by the
    # benchmark, or an oracle the tests compare against; anything else is a
    # wrapper only the tests call.  A method is referenced only as an
    # attribute (``x.name``): a local variable of the same name is no use.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {f"{m}.{f}" for m, f in tracing.TARGETS}
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    total = sum((name_counts(tree) for tree in trees), Counter())
    attributes = sum((name_counts(tree, True) for tree in trees), Counter())
    definitions = public_definitions()
    unneeded = []
    for name, node in definitions.items():
        short = name.rsplit(".", 1)[1]
        if name.count(".") == 2:  # module.Class.method
            referenced = attributes[short] > name_counts(node, True)[short]
        else:
            referenced = total[short] > name_counts(node)[short]
        if not referenced and name not in traced and name not in ORACLES:
            unneeded.append(name)
        if referenced and name in ORACLES:
            unneeded.append(f"{name} (referenced, so no longer an oracle)")
    assert unneeded == []
    assert set(ORACLES) <= set(definitions)


# What a polytope is belongs to ``geometry``: no other module reads a
# polytope's private integer key or writes the hull memo, and no module
# defines a dimension cap of its own under the names such caps had.
GEOMETRY_PRIVATE = {"_key", "_hull_cache"}
RETIRED_CAPS = {"MAX_DIM", "_DIM_CAP", "_check_dim"}


def defined_and_referenced(tree: ast.Module) -> set[str]:
    """Every name and attribute in the tree, and every function and class it defines."""
    return referenced_names(tree) | {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_polytope_rules_stay_in_geometry(path):
    names = defined_and_referenced(ast.parse(path.read_text(encoding="utf-8")))
    if path.stem != "geometry":
        assert names & GEOMETRY_PRIVATE == set()
    assert names & RETIRED_CAPS == set()


# Second homes of one concept, deleted for the one that stays: the aligned-
# simplex recognizer is ``simplex.AlignedSimplex.recognize``, a placing's
# facet planes come with its extreme points from ``hull._Placing.boundary``,
# an assembly's volume and orthant split are its ``piece_volume`` and
# ``split_coeffs``, and an orthant is named by its mask alone, written as a
# sign string by ``assembly.mask_to_str`` and read back by
# ``io.mask_from_str``, with -P built by ``geometry.negate``.
RETIRED_SECOND_HOMES = {"_detect_aligned", "facet_planes", "lab_volume", "_orthant_split",
                        "sign_from_str", "all_signs", "sign_to_str", "SignVector", "reflect"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_retired_second_homes_stay_gone(path):
    names = defined_and_referenced(ast.parse(path.read_text(encoding="utf-8")))
    assert names & RETIRED_SECOND_HOMES == set()


# Every memo in the package, with the one quantity it holds: the
# ``functools`` caches and ``cached_property``s, and the module-level
# ``_*_cache`` dicts.  A memo that no workload hits costs memory and a key
# per call for nothing, so a new one is listed here with what it holds.
MEMOS = {
    "geometry._hull_cache": "a polytope's hull data: vertices, volume, pivots, facet planes",
    "geometry.negate": "-P by P",
    "antiblocking.normalized_shadow_volumes": "|E|! Vol(D P_E) over the E of one size, "
                                              "by polytope and size",
    "mixed.volume_polynomial": "the expansion of Vol(K + sT) by the pair (K, T) asked for",
    "mixed._cayley_coeffs": "the Cayley coefficients by the canonical pair of four",
    "io._assembly_cache": "a loaded assembly by its dimension and its pieces' JSON text",
    "cli.build_parser": "the argument parser, built once per process",
    "assembly.OrthantAssembly.hull": "the body K of the assembly",
    "assembly.OrthantAssembly.split_coeffs": "the orthant-split sum of volume polynomials",
    "assembly.OrthantAssembly.relaxed_coeffs": "the relaxed-pair sum of volume polynomials",
    "assembly.OrthantAssembly.piece_volume": "Vol(K), the sum of the piece volumes",
    "assembly.OrthantAssembly.shadow_denom": "L, the lcm of the pieces' vertex denominators",
    "assembly.OrthantAssembly._shadow_tables": "the pieces' shadow tables over L by set size",
}
MEMO_DECORATORS = {"cache", "lru_cache", "cached_property"}


def is_memo_decorator(node: ast.expr) -> bool:
    """``cache``, ``functools.cache`` or a call such as ``lru_cache(None)``."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in MEMO_DECORATORS


def defined_memos(node: ast.AST, prefix: str) -> set[str]:
    """Memoized functions, methods and properties at any depth, and the
    module-level ``_*_cache`` names, as ``prefix.name``."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if any(map(is_memo_decorator, child.decorator_list)):
                found.add(name)
            found |= defined_memos(child, name)
        elif isinstance(node, ast.Module) and isinstance(child, (ast.Assign, ast.AnnAssign)):
            targets = child.targets if isinstance(child, ast.Assign) else [child.target]
            found |= {f"{prefix}.{t.id}" for t in targets
                      if isinstance(t, ast.Name) and t.id.startswith("_")
                      and t.id.endswith("_cache")}
    return found


def test_every_memo_is_listed():
    found = set()
    for path in SRC.glob("*.py"):
        found |= defined_memos(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == set(MEMOS)
