"""Schema graph passes on very long schemas: linear time, no recursion.

A chain of element types ``a0 -> a1 -> ...`` long enough to overflow
the default recursion limit in a recursive walk, and to make a cubic
closure take tens of seconds, plus the same chain closed into a cycle.
"""

import time

import pytest

from repro.analysis.independence import depth_cap_from, recursion_structure
from repro.analysis.project import schema_reach
from repro.schema import DTD, TEXT_SYMBOL

LENGTH = 1500
#: Generous wall-clock budget per schema; the linear passes take well
#: under a second on a 2-core x86 box.
BUDGET_S = 10.0


def _long_schema(cycle: bool) -> DTD:
    """``a0 -> a1 -> ... -> a{LENGTH-1} -> #PCDATA``, optionally closed
    into one ``LENGTH``-cycle by a back edge to ``a0``."""
    models = {f"a{i}": f"a{i + 1}" for i in range(LENGTH - 1)}
    models[f"a{LENGTH - 1}"] = "(#PCDATA | a0)*" if cycle else "#PCDATA"
    return DTD.from_dict("a0", models)


@pytest.mark.parametrize("cycle", [False, True], ids=["chain", "cycle"])
def test_long_schemas_stay_linear_and_iterative(cycle):
    dtd = _long_schema(cycle)
    started = time.perf_counter()

    # Every node of the cycle recurses around all of it in a recursive
    # walk, whatever order the symbols come in.
    reach = dict(schema_reach(dtd, 10 * LENGTH))
    assert reach["a0"] == (10 * LENGTH if cycle else LENGTH)
    assert reach[f"a{LENGTH - 1}"] == (10 * LENGTH if cycle else 1)
    assert reach[TEXT_SYMBOL] == 0

    cap = depth_cap_from(recursion_structure(dtd), 2)
    assert cap == (2 * LENGTH if cycle else LENGTH) + 1

    assert dtd.is_recursive() == cycle
    assert len(dtd.recursive_symbols()) == (LENGTH if cycle else 0)
    below = dtd.descendants_of("a0")
    assert len(below) == LENGTH + (1 if cycle else 0)
    assert TEXT_SYMBOL in below and ("a0" in below) == cycle

    assert time.perf_counter() - started < BUDGET_S
