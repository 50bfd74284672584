"""Constants are constants.

DESIGN.md section 4 tabulates each protocol constant the paper states
and the name in ``repro`` that holds it; every row must agree with the
code.  A value that nothing sets is a constant too: every
:class:`HRMCConfig` field must be set by some caller outside
``core/config.py`` (an experiment's or ``CHAOS_TUNING``'s cfg dict, the
runner, an example or a test), or it belongs beside the constants.
"""

import ast
import dataclasses
import importlib
import pathlib
import re

from repro.core.config import HRMCConfig

ROOT = pathlib.Path(__file__).resolve().parents[2]
CONFIG = ROOT / "src" / "repro" / "core" / "config.py"

#: paper units, in the unit of the constant's name suffix
_UNITS = {"s": ("_US", 1_000_000), "ms": ("_US", 1_000),
          "RTTs": ("_RTTS", 1), "jiffy": ("_JIFFIES", 1),
          "jiffies": ("_JIFFIES", 1), "bytes": ("_LEN", 1)}

_ROW = re.compile(r"^\| ([^|]+) \| (\d+) (\w+) \| `([\w.]+)` \|$")


def _design_rows():
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 4. ")[1].split("\n## ")[0]
    return [m.groups() for m in map(_ROW.match, section.splitlines()) if m]


def _resolve(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module("repro." + ".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise AssertionError(f"no module for {dotted}")


def test_design_constants_table_matches_the_code():
    rows = _design_rows()
    assert len(rows) >= 8, "DESIGN.md section 4 lost its table"
    for what, value, unit, name in rows:
        suffix, scale = _UNITS[unit]
        assert name.upper().endswith(suffix), \
            f"{what}: {name} is not in {unit}"
        assert _resolve(name) == int(value) * scale, \
            f"DESIGN.md says {what} is {value} {unit}; {name} differs"


def _set_names(path):
    """Names ``path`` sets: keywords of ``HRMCConfig(...)`` and
    ``replace(...)`` calls, and the string keys of dict literals (the
    experiments' and ``CHAOS_TUNING``'s cfg dicts)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            fn = node.func
            callee = fn.id if isinstance(fn, ast.Name) else \
                getattr(fn, "attr", None)
            if callee in ("HRMCConfig", "replace"):
                names.update(k.arg for k in node.keywords if k.arg)
        elif isinstance(node, ast.Dict):
            names.update(k.value for k in node.keys
                         if isinstance(k, ast.Constant)
                         and isinstance(k.value, str))
    return names


def test_every_config_field_is_set_by_a_caller():
    callers = [path for top in ("src", "tests", "examples")
               for path in sorted((ROOT / top).rglob("*.py"))
               if path != CONFIG]
    set_somewhere = set().union(*map(_set_names, callers))
    unset = [f.name for f in dataclasses.fields(HRMCConfig)
             if f.name not in set_somewhere]
    assert not unset, (
        f"HRMCConfig fields nothing sets: {unset}; make each a module "
        "constant in core/config.py")
