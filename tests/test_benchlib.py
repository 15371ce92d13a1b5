"""benchlib.spy, the wrapper both stage benches time and count through."""

import importlib.util
import types
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "benchlib.py"
_SPEC = importlib.util.spec_from_file_location("benchlib", _PATH)
benchlib = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchlib)


class Counter:
    def __init__(self, start):
        self.value = start

    def add(self, k):
        if k < 0:
            raise ValueError("negative step")
        self.value += k
        return self.value


def _module():
    mod = types.ModuleType("fake")
    mod.double = lambda x: 2 * x
    mod.halve = lambda x: x // 2
    mod.Counter = Counter
    return mod


def test_calls_are_recorded_in_order_with_args_and_results():
    mod = _module()
    with benchlib.spy(mod, "double", "halve") as calls:
        assert mod.double(3) == 6
        assert mod.halve(9) == 4
        assert mod.double(5) == 10
    assert [(args, result) for _, args, result in calls["double"]] == [((3,), 6), ((5,), 10)]
    assert [(args, result) for _, args, result in calls["halve"]] == [((9,), 4)]
    assert all(ms >= 0 for ms, *_ in calls["double"] + calls["halve"])


def test_names_are_restored_also_when_a_wrapped_call_raises():
    mod = _module()
    double, add = mod.double, Counter.add
    with pytest.raises(ValueError, match="negative step"):
        with (benchlib.spy(mod, "double") as module_calls,
              benchlib.spy(Counter, "add") as method_calls):
            c = Counter(1)
            c.add(2)
            mod.double(c.value)
            c.add(-1)
    assert mod.double is double
    assert Counter.add is add
    # the call that raised is not recorded; a method call records self
    assert [(args, result) for _, args, result in method_calls["add"]] == [((c, 2), 3)]
    assert [result for *_, result in module_calls["double"]] == [6]


def test_nested_method_then_class_spies_restore_both():
    mod = _module()
    add = Counter.add
    with benchlib.spy(mod.Counter, "add") as adds, benchlib.spy(mod, "Counter") as made:
        assert mod.Counter is not Counter
        c = mod.Counter(10)
        c.add(5)
    assert mod.Counter is Counter
    assert Counter.add is add
    assert [result for *_, result in made["Counter"]] == [c]
    assert [result for *_, result in adds["add"]] == [15]
