"""The three BLAKE2b digests come from `_blake2`, and are hashlib's.

Every RNG substream seed, every spec address and the code fingerprint
are BLAKE2b digests taken from `_blake2`, the module `hashlib.blake2b`
is, so that no process loads `hashlib` (tests/harness/
test_cold_start.py).  Here each one is held equal to `hashlib.blake2b`
over the same bytes, and one spec address to its literal value: a
changed digest would move every simulated run and every fleet cache
address.
"""

from __future__ import annotations

import hashlib
import random

from repro.fleet.fingerprint import code_fingerprint
from repro.sim.rng import substream
from repro.workloads.spec import RunSpec


def test_substream_seed_is_hashlib_blake2b():
    seed = hashlib.blake2b(b"7:x", digest_size=8).digest()
    expected = random.Random(int.from_bytes(seed, "big"))
    assert substream(7, "x").getstate() == expected.getstate()


def test_spec_address_is_hashlib_blake2b_and_did_not_move():
    spec = RunSpec.lan(2, 10e6, seed=1, nbytes=20_000)
    address = spec.content_hash()
    assert address == hashlib.blake2b(spec.canonical_json().encode(),
                                      digest_size=16).hexdigest()
    # recorded when the digest still came from hashlib (f76a40d8...),
    # re-recorded when the spec lost its run bound (SPEC_VERSION 3)
    # and its health flag (SPEC_VERSION 4)
    assert address == "7eaaf69d46283f2637a2661d939f890f"


def test_code_fingerprint_is_hashlib_blake2b(tmp_path):
    files = {"b.py": b"B = 2\n", "a/x.py": b"X = 1\n",
             "fleet/store.py": b"excluded\n"}
    for rel, data in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes(data)
    h = hashlib.blake2b(digest_size=16)
    for rel in ("a/x.py", "b.py"):
        h.update(rel.encode() + b"\x00" + files[rel] + b"\x00")
    assert code_fingerprint(root=str(tmp_path)) == h.hexdigest()
