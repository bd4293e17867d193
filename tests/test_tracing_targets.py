"""The benchmark's layer trace names functions that exist.

``perfbench/tracing.py`` wraps cornervol functions by module and attribute
name; a rename or removal would otherwise surface only when a traced
benchmark run fails.  The file is loaded by path and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_a_callable_of_its_module():
    tracing = load_tracing()
    assert tracing.TARGETS
    for module_name, fn_name in tracing.TARGETS:
        module = importlib.import_module(f"cornervol.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


def test_miss_markers_name_traced_functions():
    tracing = load_tracing()
    traced = {f"{m}.{f}" for m, f in tracing.TARGETS}
    for cached, child in tracing._MISS_CHILD.items():
        assert {cached, child} <= traced
