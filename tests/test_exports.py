"""Every name a ``facemark`` module exports in ``__all__`` exists, so a stale
export fails here rather than at ``from facemark.<module> import *``."""

import importlib

import pytest

import facemark


@pytest.mark.parametrize("module", ["facemark", *(f"facemark.{name}" for name in facemark.__all__)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__), "a name is exported twice"
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
