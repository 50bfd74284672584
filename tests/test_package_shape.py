"""Package-shape hygiene: no empty sub-packages ship under src/repro.

An ``__init__.py``-only directory with no sibling modules is either a
stale remnant of a refactor (the old one-module ``repro.rmc`` package,
now the ``HRMCConfig.as_rmc()`` preset), a placeholder that should not
be on the import path yet, or a plain module wearing a package costume.
Either way it misleads readers about the architecture, so the tree
must not contain one.
"""

import os

SRC_ROOT = os.path.join(os.path.dirname(__file__), "..", "src", "repro")


def iter_packages():
    for dirpath, dirnames, filenames in os.walk(SRC_ROOT):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        if "__init__.py" in filenames:
            yield dirpath, dirnames, filenames


def test_src_tree_exists():
    assert os.path.isdir(SRC_ROOT)
    assert sum(1 for _ in iter_packages()) > 5


def test_no_empty_subpackages():
    offenders = []
    for dirpath, dirnames, filenames in iter_packages():
        if dirpath == SRC_ROOT:
            continue        # the top-level package aggregates, fine
        modules = [f for f in filenames
                   if f.endswith(".py") and f != "__init__.py"]
        if modules or dirnames:
            continue
        # a leaf package holding only its own __init__.py is the
        # repro.rmc shape: one module wearing a package costume --
        # trivial or not, it belongs in the parent as a plain module
        offenders.append(os.path.relpath(dirpath, SRC_ROOT))
    assert not offenders, (
        f"__init__-only sub-packages under src/repro: "
        f"{sorted(offenders)} -- fold them into their parent as a "
        f"plain module")


def test_rmc_package_is_gone():
    """RMC is ``HRMCConfig.as_rmc()``, not a package of its own."""
    assert not os.path.isdir(os.path.join(SRC_ROOT, "rmc"))
