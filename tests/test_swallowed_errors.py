"""A process's error is never swallowed.

The engine steps every simulated process by resuming its generator
(``send``, ``throw``, ``next``) or by calling a ``_resume`` that does.
An exception out of that step is the process's error: a broad handler
(bare ``except``, ``Exception`` or ``BaseException``) around it must
re-raise it or record it (``Process._resume`` and ``ReceiverApp._resume``
pass it to ``_finish``, which keeps it for ``join`` or raises it at once
for a fatal process).  A handler that does neither would turn a crashed
process into a run that looks finished, so it fails here.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: calls that step a generator, directly or through a process's resume
_STEPS = {"send", "throw", "__next__", "_resume"}
_BROAD = {"Exception", "BaseException"}


def _steps_a_generator(statements):
    for node in (n for s in statements for n in ast.walk(s)):
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Attribute) and fn.attr in _STEPS:
                return True
            if isinstance(fn, ast.Name) and fn.id == "next":
                return True
    return False


def _is_broad(handler):
    kinds = handler.type
    if kinds is None:
        return True
    names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    return any(isinstance(n, ast.Name) and n.id in _BROAD for n in names)


def _keeps_the_error(handler):
    for node in (n for s in handler.body for n in ast.walk(s)):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Name) and node.id == handler.name:
            return True
    return False


def swallowing_handlers(source, label="<source>"):
    """``label:line`` of each broad handler around a generator step that
    neither re-raises nor records the error."""
    return [f"{label}:{handler.lineno}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Try) and _steps_a_generator(node.body)
            for handler in node.handlers
            if _is_broad(handler) and not _keeps_the_error(handler)]


def test_no_handler_swallows_a_process_error():
    hits = [hit for path in sorted(SRC.rglob("*.py"))
            for hit in swallowing_handlers(path.read_text(),
                                           str(path.relative_to(SRC)))]
    assert not hits, hits


def test_the_check_tells_swallowing_from_recording():
    swallow = ("try:\n    gen.send(None)\n"
               "except Exception:\n    pass\n")
    record = ("try:\n    gen.send(None)\n"
              "except Exception as exc:\n    finish(exc)\n")
    narrow = ("try:\n    next(gen)\n"
              "except StopIteration:\n    pass\n")
    assert swallowing_handlers(swallow) == ["<source>:3"]
    assert swallowing_handlers(record) == []
    assert swallowing_handlers(narrow) == []
