"""Every library module's doctests run, and so do the oracles'; each module
has some."""

import doctest
import importlib

import pytest

MODULES = [
    "symblocks.algebra",
    "symblocks.partitions",
    "symblocks.wreath",
    "symblocks.blocks",
    "symblocks.unipotent",
    "oracles",
]


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0
