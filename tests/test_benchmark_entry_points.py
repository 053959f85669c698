"""The traced benchmark can wrap every entry point it names, and unwrap it.

``e2e_bench/spans.py`` gets its per-layer breakdown by replacing methods and
functions of the program by name (``ENTRY_POINTS``).  ``install`` reads each
one from its owner's ``__dict__``, so a renamed or deleted entry point makes
``run.py --trace 1`` fail with a ``KeyError``.  These tests catch that in the
program's own suite.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

E2E_BENCH = str(Path(__file__).resolve().parents[1] / "e2e_bench")


@pytest.fixture(scope="module")
def spans():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(E2E_BENCH)
        yield importlib.import_module("spans")


def _owner(module_name, owner_name):
    module = importlib.import_module(module_name)
    return getattr(module, owner_name) if owner_name else module


def _entry_points(spans):
    return [(module_name, owner_name, attr)
            for module_name, owner_name, attr, _, _ in spans.ENTRY_POINTS]


def test_every_entry_point_is_defined_on_its_owner(spans):
    missing = [
        f"{module_name}.{owner_name}.{attr}".replace("..", ".")
        for module_name, owner_name, attr in _entry_points(spans)
        if attr not in _owner(module_name, owner_name).__dict__
    ]
    assert not missing


def test_install_then_uninstall_restores_every_entry_point(spans):
    targets = [(_owner(m, o), attr) for m, o, attr in _entry_points(spans)]
    parser_cls = importlib.import_module("repro.golang.parser").Parser
    targets.append((parser_cls, "__init__"))
    originals = [owner.__dict__[attr] for owner, attr in targets]

    uninstall = spans.install(spans.Tracer())
    try:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(targets, originals))
    finally:
        uninstall()
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(targets, originals))
