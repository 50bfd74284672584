"""Protocol-code fingerprint: one hash over everything that can change
a simulation result.

The fleet's cache key is ``(RunSpec content hash, code fingerprint)``:
editing any source file under ``src/repro/`` -- the protocol, the
network models, the engine, the spec that builds a world, the worker
and the run record it returns -- silently invalidates every cached
result, while touching the orchestrator (the executor, the store, the
grid, this module) does not, because it never influences what a worker
computes from a spec.
"""

from __future__ import annotations

# hashlib.blake2b itself, without hashlib's OpenSSL (DESIGN §5g)
from _blake2 import blake2b
from pathlib import Path
from typing import Optional

__all__ = ["code_fingerprint"]

#: what cannot affect a run's result, excluded so that iterating on the
#: orchestrator does not churn the cache
_EXCLUDED_FILES = frozenset(
    f"fleet/{name}.py"
    for name in ("__init__", "executor", "store", "grid", "fingerprint"))

_cached: Optional[str] = None


def _repro_root() -> Path:
    import repro
    return Path(repro.__file__).resolve().parent


def code_fingerprint(root: Optional[str] = None) -> str:
    """BLAKE2b over every ``*.py`` under ``root`` (default: the
    installed ``repro`` package), excluding :data:`_EXCLUDED_FILES`.

    Paths are hashed relative to ``root`` with sorted ordering, so the
    fingerprint is stable across machines, processes and checkout
    locations -- it changes exactly when a source file's content,
    name or location changes.
    """
    global _cached
    if root is None and _cached is not None:
        return _cached
    base = Path(root) if root is not None else _repro_root()
    h = blake2b(digest_size=16)
    for path in sorted(base.rglob("*.py")):
        rel = path.relative_to(base)
        if rel.as_posix() in _EXCLUDED_FILES:
            continue
        h.update(str(rel).encode())
        h.update(b"\x00")
        h.update(path.read_bytes())
        h.update(b"\x00")
    digest = h.hexdigest()
    if root is None:
        _cached = digest
    return digest
