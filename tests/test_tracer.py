"""The benchmark's tracer wraps program functions by module and name, and
reads its counted work off their results.  These tests keep that surface in
place, since the tracer's own tests are not part of the default suite."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from qcweights import cli, core, counting, semigroup

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = {"cli": cli, "core": core, "counting": counting, "semigroup": semigroup}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(spans):
    assert spans.TRACED
    for module, attr, name in spans.TRACED:
        assert callable(getattr(MODULES[module], attr)), name


def test_traced_results_carry_the_work_fields(spans):
    table = semigroup.build_apery((3, 5, 7))
    assert (table.modulus, table.generators) == (3, (3, 5, 7))
    assert spans._work("semigroup.build_apery", table) == (3, [3, 5, 7])

    sieve = semigroup.build_sieve((3, 5), 20)
    assert spans._work("semigroup.build_sieve", sieve) == (21, [3, 5])

    iset = semigroup.obstruction_set_fast((3, 5), 2, semigroup.build_apery((3, 5)))
    assert iset.interval == (8, 16)
    assert spans._work("semigroup.obstruction_set_fast", iset) == (7, None)


def test_engine_calls_go_through_the_module_attributes(monkeypatch):
    # The tracer sees a call only if the program makes it through
    # ``semigroup.<name>``; a call bound elsewhere would leave the per-layer
    # view silently empty.
    calls = Counter()
    for attr in ("build_apery", "extend_apery", "obstruction_set_fast"):
        fn = getattr(semigroup, attr)
        monkeypatch.setattr(
            semigroup, attr, lambda *args, attr=attr, fn=fn: calls.update([attr]) or fn(*args)
        )
    # ``obstruction_set_fast`` is a public wrapper over ``Semigroup.window``,
    # which the program calls directly, so the program makes no call to it.
    core.obstruction_set((3, 5, 7), 2)
    assert calls == Counter(build_apery=1, extend_apery=1)
    calls.clear()
    # A scan answers off its prefixes' bitsets and makes no table at all.
    core.scan(4, 12)
    core.scan(5, 14)
    assert calls == Counter()
