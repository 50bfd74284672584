"""Every attribute the program stores on ``self`` is read by the program.

State that is written and never read costs a store on every path that
writes it (a counter bumped per packet) and a line that a reader has
to understand, and it tells nobody anything.  State only a test reads
costs the same and shows nothing the program does: a test states
behaviour the program shows instead.  The census: each name that code
under ``src/repro`` assigns as ``self.<name>`` (a plain, augmented or
annotated assignment; ``self.n += 1`` is a write, not a read) must be
read somewhere under ``src``, ``bench`` or ``examples`` (``tests``
does not count): loaded as ``<anything>.<name>``, or named by a string a
``getattr`` reads, either ``getattr(x, "<name>")`` or one drawn from a
literal tuple by the comprehension that calls ``getattr(x, n)``.
The match is by name, so a read of a same-named attribute of another
class counts: the census finds state nobody reads, not every such
field.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
READERS = ("src", "bench", "examples")


def _self_targets(node):
    """The ``self.<name>`` nodes an assignment statement stores to."""
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    else:
        return
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        elif isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name) and \
                target.value.id == "self":
            yield target


def written(source, label="<source>"):
    """name -> ``label:line`` of each store to ``self.<name>``."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        for target in _self_targets(node):
            out.setdefault(target.attr, []).append(f"{label}:{target.lineno}")
    return out


def _getattr_name(node):
    """The second argument of a ``getattr(obj, name, ...)`` call."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "getattr" and len(node.args) >= 2:
        return node.args[1]
    return None


def read(source):
    """Every attribute name ``source`` reads (see the module doc)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        arg = _getattr_name(node)
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            out.add(arg.value)
        if not isinstance(node, (ast.ListComp, ast.SetComp,
                                 ast.GeneratorExp, ast.DictComp)):
            continue
        looked_up = {arg.id for sub in ast.walk(node)
                     for arg in [_getattr_name(sub)]
                     if isinstance(arg, ast.Name)}
        for gen in node.generators:
            if isinstance(gen.target, ast.Name) and \
                    gen.target.id in looked_up and \
                    isinstance(gen.iter, (ast.Tuple, ast.List)):
                out.update(e.value for e in gen.iter.elts
                           if isinstance(e, ast.Constant))
    return out


def test_every_attribute_stored_on_self_is_read():
    stores = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        label = str(path.relative_to(ROOT))
        for name, sites in written(path.read_text(), label).items():
            stores.setdefault(name, []).extend(sites)
    loads = set()
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            loads |= read(path.read_text())
    unread = {name: sites for name, sites in sorted(stores.items())
              if name not in loads}
    assert not unread, unread


def test_the_census_tells_a_read_from_a_write():
    source = (
        "class C:\n"
        "    def __init__(self):\n"
        "        self.bumped = self.plain = 0\n"
        "        self.a, self.b = 1, 2\n"
        "        self.named: int = 0\n"
        "    def tick(self):\n"
        "        self.bumped += 1\n"
        "        return self.a, getattr(self, 'named')\n"
        "    def books(self):\n"
        "        return {n: getattr(self, n) for n in ('b',)}\n")
    assert sorted(written(source)) == ["a", "b", "bumped", "named", "plain"]
    assert written(source)["bumped"] == ["<source>:3", "<source>:7"]
    assert {"a", "b", "named"} <= read(source)
    assert not {"bumped", "plain"} & read(source)
