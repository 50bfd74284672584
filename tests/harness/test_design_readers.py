"""DESIGN.md §5c's "What reads each instrument" table against the code.

Every CLI subcommand and every ``obs`` module needs a row naming what
reads it.  The table's rows must name exactly the keys of
``harness/cli.py``'s ``_COMMANDS`` and the ``obs`` modules on disk, so
a subcommand or module added or deleted without its row fails here.
"""

import os
import re

from repro.harness.cli import _COMMANDS

REPO = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def _reader_rows() -> list[tuple[str, str]]:
    with open(os.path.join(REPO, "DESIGN.md"), encoding="utf-8") as fh:
        doc = fh.read()
    section = doc[doc.index("**What reads each instrument.**"):]
    section = section[:section.index("\n## ")]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| ") and len(cells) == 2 \
                and not cells[0].startswith("module"):
            rows.append((cells[0], cells[1]))
    return rows


def test_reader_table_names_every_subcommand_and_obs_module():
    rows = _reader_rows()
    assert all(reader for _, reader in rows), rows
    names = [name for first, _ in rows
             for name in re.findall(r"`([^`]+)`", first)]

    modules = {n for n in names if n.startswith("obs/")}
    obs = os.path.join(REPO, "src", "repro", "obs")
    on_disk = {os.path.relpath(os.path.join(root, f), obs)
               for root, _, files in os.walk(obs)
               for f in files if f.endswith(".py") and f != "__init__.py"}
    assert modules == {f"obs/{p.replace(os.sep, '/')}" for p in on_disk}

    # a subcommand row starts with words, not a flag or a path; `fleet
    # status` and `fleet prune` are the `fleet` command's two actions
    commands = set()
    for first, _ in rows:
        quoted = re.findall(r"`([^`]+)`", first)
        if quoted[0].startswith("-") or "/" in quoted[0]:
            continue
        for name in (q for q in quoted if not q.startswith("-")):
            key = name if name in _COMMANDS else name.split()[0]
            assert key in _COMMANDS, f"row {first!r}: no subcommand {name!r}"
            commands.add(key)
    assert commands == set(_COMMANDS)
