"""Every exported name resolves, so moved or deleted code leaves no stale export."""

import importlib
import pkgutil

import pytest

import qa2nli

_MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(qa2nli.__path__) if name != "__main__"
)


@pytest.mark.parametrize("name", ["qa2nli", *(f"qa2nli.{m}" for m in _MODULES)])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_eval_loader():
    from qa2nli.metrics import load_eval_records

    assert qa2nli.load_eval_records is load_eval_records
    assert "load_eval_records" in qa2nli.__all__
