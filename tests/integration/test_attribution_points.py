"""The e2e benchmark's attribution points still exist.

``benchmarks/e2e/spans.py`` wraps the calls *into* each layer from the
outside, by name: ``installed()`` looks every ``(module, path)`` of
``ENTRY_POINTS`` up as ``vars(owner)[attribute]`` and fails the traced
run when one is missing.  A rename, or a method that moved to a base
class, would otherwise only be caught by the CI traced smokes -- and
only for the workloads they cover.  The list is read, never edited.
"""

from __future__ import annotations

import importlib

import pytest

from benchmarks.e2e.spans import ENTRY_POINTS


@pytest.mark.parametrize(
    "module_name, path",
    sorted({(module_name, path) for module_name, path, _span in ENTRY_POINTS}),
)
def test_entry_point_resolves_as_installed_resolves_it(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    # Defined on the owner itself: an inherited method would be patched
    # on the subclass and restored as a shadowing attribute.
    assert attribute in vars(owner), f"{module_name}.{path} is gone"
    target = vars(owner)[attribute]
    if isinstance(target, classmethod):
        target = target.__func__
    assert callable(target)
