"""Public names: every entry of an ``__all__`` resolves, so a deletion that
leaves a stale export fails here."""

import importlib
import pkgutil

import pytest

import wcochaos

MODULES = [wcochaos] + [importlib.import_module(f"wcochaos.{m.name}")
                        for m in pkgutil.iter_modules(wcochaos.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    names = module.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []


def test_star_import():
    namespace = {}
    exec("from wcochaos import *", namespace)
    assert set(wcochaos.__all__) <= set(namespace)
