"""Shared deterministic instance banks for the test suite.

The banks are session-scoped so the expensive sweeps (volume polynomials of
4-dimensional bodies) are generated once and shared by the module tests and
the acceptance suite; all randomness is seeded, so reruns see identical
instances, and hypothesis runs derandomized.
"""

import random

import pytest
from hypothesis import settings

from cornervol import hull as hull_mod
from cornervol import random_ab_body, random_assembly

# Property tests draw the same examples on every run, and a failure prints the
# blob that reproduces it.  Each test's own @settings still sets max_examples.
settings.register_profile("tier1", derandomize=True, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture
def strict_hull():
    """The hull engine's structural self-checks, on for one test."""
    hull_mod.strict_checks = True
    try:
        yield
    finally:
        hull_mod.strict_checks = False


def spread(counts: dict[int, int]) -> list[int]:
    dims = []
    for n in sorted(counts):
        dims.extend([n] * counts[n])
    return dims


@pytest.fixture(scope="session")
def ab_pair_bank():
    """100 anti-blocking pairs over n in {2, 3, 4}; every 5th second body is
    lower-dimensional (one coordinate forced to zero)."""
    rng = random.Random("ab-pair-bank")
    pairs = []
    for idx, n in enumerate(spread({2: 40, 3: 35, 4: 25})):
        k = random_ab_body(rng, n)
        kp = random_ab_body(rng, n)
        if idx % 5 == 4:
            dead_axis = rng.randrange(n)
            gens = [
                tuple(0 if i == dead_axis else x for i, x in enumerate(v))
                for v in kp.vertices
            ]
            from cornervol import ab_hull

            kp = ab_hull(gens, n)
        pairs.append((n, k, kp))
    return pairs


@pytest.fixture(scope="session")
def unconditional_bank():
    """100 unconditional assemblies, n up to 4."""
    out = []
    for idx, n in enumerate(spread({2: 40, 3: 35, 4: 25})):
        out.append(random_assembly(f"uncond-{idx}", n, "unconditional"))
    return out


@pytest.fixture(scope="session")
def glued_bank():
    """50 glued assemblies, n up to 3."""
    out = []
    for idx, n in enumerate(spread({2: 25, 3: 25})):
        out.append(random_assembly(f"glued-{idx}", n, "glued"))
    return out


@pytest.fixture(scope="session")
def extra_assembly_bank():
    """Top-up assemblies so the inequality sweep covers at least 200 bodies."""
    out = []
    for idx, n in enumerate(spread({2: 30, 3: 20})):
        style = "glued" if idx % 2 else "unconditional"
        out.append(random_assembly(f"extra-{idx}", n, style))
    return out
