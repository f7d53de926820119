"""Every name a module exports must exist, so a deleted helper leaves no dangling export."""

import importlib
import pkgutil

import pytest

import qskyrm

MODULES = ["qskyrm"] + [
    f"qskyrm.{info.name}" for info in pkgutil.iter_modules(qskyrm.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    assert len(set(exported)) == len(exported)
