"""The guards are read from the environment and nowhere else: every work
check goes through `budget.charge`, and no function takes a per-call
override."""

import importlib
import inspect
import pkgutil

import pytest

import ringlab
from ringlab import budget
from ringlab.errors import WorkGuardExceeded


def test_charge_refuses_one_unit_past_the_work_guard(monkeypatch):
    budget.charge(budget.DEFAULT_WORK_GUARD, "a default-sized job")
    monkeypatch.setenv("RINGLAB_WORK_GUARD", "1000")
    budget.charge(1000, "a job of exactly the guard")
    with pytest.raises(WorkGuardExceeded, match="1001 work, budget 1000"):
        budget.charge(1001, "a job one unit past the guard")


def _callables():
    """(qualified name, callable) for every function of every ringlab
    module and every method of its classes, defined there."""
    for info in pkgutil.iter_modules(ringlab.__path__):
        module = importlib.import_module(f"ringlab.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_guards_have_one_source():
    """No `guard` parameter anywhere, guards that take no arguments, and the
    order-guard skip only on the two rings that the intersectivity witness
    builds after charging their order as work."""
    found = dict(_callables())
    assert "ringlab.rings.make_ring" in found and "ringlab.rings.ZModRing.__init__" in found
    with_guard = [q for q, fn in found.items() if "guard" in inspect.signature(fn).parameters]
    assert with_guard == []
    assert not inspect.signature(budget.order_guard).parameters
    assert not inspect.signature(budget.work_guard).parameters
    skips = {q for q, fn in found.items() if "_guard_checked" in inspect.signature(fn).parameters}
    assert skips == {"ringlab.rings.ZModRing.__init__", "ringlab.rings.PolyQuotientRing.__init__"}
