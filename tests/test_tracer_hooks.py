"""The benchmark tracer's hooks still find the names they replace.

`perfbench/tracer.py` swaps module attributes for spans.  A name it patches
must still exist where it patches it, and, unless a workload calls it as an
entry point, the module must still look it up there as a global at call
time, or the traced run would silently stop counting that layer.
"""

import dis
import inspect
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracer  # noqa: E402
from wfw import experiments, frank_wolfe  # noqa: E402

_ENTRY_POINTS = {
    (experiments, "run_deconv"),
    (experiments, "run_mmd_flow"),
    (frank_wolfe, "run_frank_wolfe"),
}

_PATCHES = [(m, a) for m, a, _ in tracer._MODULE_PATCHES] + [
    (frank_wolfe, "trust_region_step")
]


def _global_loads(module):
    """Names the module's own functions and methods read as globals."""
    codes = []
    for obj in vars(module).values():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            codes += [f.__code__ for f in vars(obj).values() if inspect.isfunction(f)]
        elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
            codes.append(obj.__code__)
    names = set()
    while codes:
        code = codes.pop()
        for ins in dis.get_instructions(code):
            if ins.opname == "LOAD_GLOBAL":
                names.add(ins.argval)
        codes += [c for c in code.co_consts if inspect.iscode(c)]
    return names


@pytest.mark.parametrize(
    "module, attr", _PATCHES, ids=[f"{m.__name__}.{a}" for m, a in _PATCHES]
)
def test_patched_name_is_looked_up_where_it_is_patched(module, attr):
    assert callable(vars(module).get(attr))
    if (module, attr) not in _ENTRY_POINTS:
        assert attr in _global_loads(module)


@pytest.mark.parametrize("cls", tracer._FUNCTIONALS, ids=lambda c: c.__name__)
def test_functional_methods_are_defined_on_the_class(cls):
    assert callable(vars(cls).get("value"))
    assert callable(vars(cls).get("derivative_oracle"))


def test_outer_loop_keeps_its_step_index_in_i():
    """`perfbench/run.py` tags each kernel sample with the outer step it
    fell in by reading the local `i` of `run_frank_wolfe`'s frame.  Without
    it no sample is charged to a step, and `hostspeed.scaled_steps`
    subtracts no sampling time from any step's wall clock."""
    assert "i" in frank_wolfe.run_frank_wolfe.__code__.co_varnames
