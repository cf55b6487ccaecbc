"""Test-session hooks shared by ``tests`` and ``bench/tests``."""

import sys

import pytest


def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "certaintrust" or name.startswith("certaintrust.")}


@pytest.fixture(autouse=True)
def _restore_package_modules():
    """Put back the ``certaintrust`` modules that a test found loaded.

    A benchmark test imports the package afresh from a checkout, which
    replaces these ``sys.modules`` entries; a later test that imports a
    name inside a function would otherwise get a second copy of the
    package, whose error classes its ``except`` clauses do not match."""
    saved = _package_modules()
    yield
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(saved)
