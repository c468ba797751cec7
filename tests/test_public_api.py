"""The public surface: every name a module exports exists."""

import importlib

import pytest

import specsense

MODULES = ("acceptance", "auc", "cli", "detection", "entropy", "fading", "montecarlo", "special_fn")


@pytest.mark.parametrize("name", ("specsense",) + tuple(f"specsense.{m}" for m in MODULES))
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_star_import():
    namespace = {}
    exec("from specsense import *", namespace)
    assert set(specsense.__all__) <= namespace.keys()
