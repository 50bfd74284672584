"""The simlint carve-out names a module that exists.

The rule skips a module by exact name, so a carve-out left behind by a
moved or deleted engine is not harmless: it silently exempts whatever
is next created under that name.
"""

import os

from repro.analysis import clockwrite

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _resolves(module: str) -> bool:
    path = os.path.join(SRC, *module.split("."))
    return (os.path.isfile(path + ".py")
            or os.path.isfile(os.path.join(path, "__init__.py")))


def test_every_carve_out_names_a_real_module():
    stale = [module for module in clockwrite.CLOCK_WRITE_ALLOWED
             if not module.startswith("repro.") or not _resolves(module)]
    assert clockwrite.CLOCK_WRITE_ALLOWED and not stale, stale
