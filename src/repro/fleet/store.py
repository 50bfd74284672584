"""Content-addressed result store under ``.hrmc-cache/``.

One JSON file per RunSpec, named by the spec's content hash and
sharded by its first two hex digits.  Every entry records the code
fingerprint it was computed under; a lookup whose fingerprint differs
is an *invalidation* (counted, treated as a miss, overwritten on the
next put).  Corrupt or truncated entries are misses too, reported once
with a one-line warning.  Writes are atomic (tmp + rename), so a
killed sweep never leaves a half-written cell -- re-running the sweep
executes exactly the missing specs.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.fleet.summary import RunSummary
from repro.workloads.spec import RunSpec

__all__ = ["ResultStore", "StoreStats", "DEFAULT_CACHE_DIR"]

DEFAULT_CACHE_DIR = ".hrmc-cache"

_FORMAT = 1


@dataclass
class StoreStats:
    """Hit/miss/invalidation accounting for one store lifetime."""

    hits: int = 0
    misses: int = 0          # absent entries
    invalidated: int = 0     # present, but computed under other code
    corrupt: int = 0         # present, but unreadable
    writes: int = 0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "invalidated": self.invalidated,
                "corrupt": self.corrupt, "writes": self.writes}


@dataclass
class StoreStatus:
    """Whole-directory census for ``hrmc-experiments fleet status``."""

    cache_dir: str
    fingerprint: str
    entries: int = 0
    fresh: int = 0           # match the current fingerprint
    stale: int = 0           # computed under a different fingerprint
    corrupt: int = 0
    total_bytes: int = 0
    by_scenario: dict = field(default_factory=dict)


class ResultStore:
    """Cache of :class:`RunSummary` results keyed by spec hash."""

    def __init__(self, cache_dir: str, fingerprint: str) -> None:
        self.cache_dir = cache_dir
        self.fingerprint = fingerprint
        self.stats = StoreStats()

    # -- paths ---------------------------------------------------------

    def path_for(self, spec_hash: str) -> str:
        return os.path.join(self.cache_dir, spec_hash[:2],
                            f"{spec_hash}.json")

    def _read_entry(self, path: str) -> Optional[dict]:
        """Entry dict, or None when absent/corrupt (counted + warned)."""
        try:
            with open(path) as fh:
                entry = json.load(fh)
            if not isinstance(entry, dict) or \
                    not isinstance(entry.get("spec", {}), dict):
                raise ValueError("entry or its spec is not a JSON object")
            if entry.get("format") != _FORMAT:
                raise ValueError(f"unknown format {entry.get('format')!r}")
            if not isinstance(entry.get("summary"), dict):
                raise ValueError("missing summary")
            return entry
        except FileNotFoundError:
            return None
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            self.stats.corrupt += 1
            print(f"hrmc-cache: treating corrupt entry {path} as a miss "
                  f"({exc})", file=sys.stderr)
            return None

    # -- get / put -----------------------------------------------------

    def get(self, spec: RunSpec) -> Optional[RunSummary]:
        path = self.path_for(spec.content_hash())
        entry = self._read_entry(path)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.get("fingerprint") != self.fingerprint:
            self.stats.invalidated += 1
            return None
        try:
            summary = RunSummary.from_dict(entry["summary"])
        except ValueError as exc:
            self.stats.corrupt += 1
            print(f"hrmc-cache: treating corrupt entry {path} as a miss "
                  f"({exc})", file=sys.stderr)
            return None
        self.stats.hits += 1
        return summary

    def put(self, spec: RunSpec, summary_dict: dict) -> str:
        """Atomically store a worker's canonical summary dict."""
        spec_hash = spec.content_hash()
        path = self.path_for(spec_hash)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {
            "format": _FORMAT,
            "spec_hash": spec_hash,
            "fingerprint": self.fingerprint,
            "spec": spec.to_dict(),
            "summary": summary_dict,
        }
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        return path

    # -- maintenance ---------------------------------------------------

    def _entry_paths(self) -> Iterator[str]:
        if not os.path.isdir(self.cache_dir):
            return
        for shard in sorted(os.listdir(self.cache_dir)):
            sdir = os.path.join(self.cache_dir, shard)
            if not os.path.isdir(sdir):
                continue
            for name in sorted(os.listdir(sdir)):
                if name.endswith(".json") and not name.startswith(".tmp-"):
                    yield os.path.join(sdir, name)

    def status(self) -> StoreStatus:
        st = StoreStatus(cache_dir=self.cache_dir,
                         fingerprint=self.fingerprint)
        for path in self._entry_paths():
            st.entries += 1
            try:
                st.total_bytes += os.path.getsize(path)
            except OSError:
                pass
            entry = self._read_entry(path)
            if entry is None:
                st.corrupt += 1
                continue
            if entry.get("fingerprint") == self.fingerprint:
                st.fresh += 1
            else:
                st.stale += 1
            scenario = entry.get("spec", {}).get("scenario", "?")
            st.by_scenario[scenario] = st.by_scenario.get(scenario, 0) + 1
        return st

    def prune(self) -> int:
        """Drop stale and corrupt entries; returns how many went."""
        removed = 0
        for path in self._entry_paths():
            entry = self._read_entry(path)
            if entry is None or entry.get("fingerprint") != \
                    self.fingerprint:
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
        return removed
