"""Every simlint carve-out names a module that exists.

``ctx.in_package`` matches by dotted prefix, so a carve-out left behind
by a deleted module is not harmless: it silently exempts whatever is
next created under that name.
"""

import os

from repro.analysis import policy

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _resolves(module: str) -> bool:
    path = os.path.join(SRC, *module.split("."))
    return (os.path.isfile(path + ".py")
            or os.path.isfile(os.path.join(path, "__init__.py")))


def test_every_carve_out_names_a_real_module():
    tuples = {name: getattr(policy, name) for name in policy.__all__
              if isinstance(getattr(policy, name), tuple)}
    assert "WALLCLOCK_ALLOWED" in tuples and "FORK_ALLOWED" in tuples
    stale = [(name, module) for name, modules in tuples.items()
             for module in modules
             if not module.startswith("repro.") or not _resolves(module)]
    assert not stale, stale
