"""Cache correctness: invalidation, corruption, resume semantics."""

import json
import os
import shutil

from repro.fleet.fingerprint import code_fingerprint
from repro.fleet.store import ResultStore
from repro.fleet.worker import execute_spec, run_spec
from repro.harness.runner import TransferResult
from repro.workloads.spec import RunSpec


def _spec(seed: int = 1) -> RunSpec:
    return RunSpec.lan(1, 10e6, seed=seed, nbytes=50_000)


def _summary(spec: RunSpec) -> dict:
    return execute_spec(spec.to_dict())


def test_put_get_round_trip(tmp_path):
    store = ResultStore(str(tmp_path / "c"), "fp-a")
    spec = _spec()
    summary = _summary(spec)
    store.put(spec, summary)
    got = store.get(spec)
    assert got is not None
    assert got.to_dict() == summary
    assert store.stats.hits == 1 and store.stats.writes == 1


def test_a_chaos_record_round_trips_through_the_store(tmp_path):
    """A crash with a rejoin: the per-receiver and rejoin records, the
    plan size and the survivors' verdict come back from the cache as
    the run left them."""
    spec = RunSpec.chaos(3, 10e6, seed=10, horizon_us=1_000_000,
                         nbytes=250_000)
    result = run_spec(spec)
    assert result.restarted_receivers and result.rejoin_results
    assert result.plan_actions > 0 and result.surviving_ok

    record = json.loads(json.dumps(result.to_dict(), sort_keys=True))
    assert {"sockets", "obs"}.isdisjoint(record)
    store = ResultStore(str(tmp_path / "c"), "fp")
    store.put(spec, record)
    for got in (TransferResult.from_dict(record), store.get(spec)):
        assert got.per_receiver == result.per_receiver
        assert got.rejoin_results == result.rejoin_results
        assert got.plan_actions == result.plan_actions
        assert got.surviving_ok == result.surviving_ok
        assert got.to_dict() == record


def test_fingerprint_mismatch_counts_as_invalidation(tmp_path):
    cache = str(tmp_path / "c")
    spec = _spec()
    old = ResultStore(cache, "fp-old")
    old.put(spec, _summary(spec))
    new = ResultStore(cache, "fp-new")
    assert new.get(spec) is None
    assert new.stats.invalidated == 1
    assert new.stats.misses == 0 and new.stats.corrupt == 0


def test_fingerprint_tracks_protocol_source_edits(tmp_path):
    """Editing anything that decides what a cached result holds -- the
    protocol, the spec that builds a world, the worker, the run record --
    changes the fingerprint; editing the orchestrator does not."""
    import repro
    src = os.path.dirname(repro.__file__)
    tree = str(tmp_path / "repro")
    shutil.copytree(src, tree, ignore=shutil.ignore_patterns("__pycache__"))

    def touch(*rel):
        with open(os.path.join(tree, *rel), "a") as fh:
            fh.write("\n# tweak\n")
        return code_fingerprint(tree)

    fingerprint = code_fingerprint(tree)
    assert fingerprint == code_fingerprint(tree)  # deterministic
    for rel in (("core", "config.py"), ("workloads", "spec.py"),
                ("fleet", "worker.py"), ("harness", "runner.py")):
        before, fingerprint = fingerprint, touch(*rel)
        assert fingerprint != before, rel
    for rel in (("fleet", "store.py"), ("fleet", "executor.py")):
        assert touch(*rel) == fingerprint, rel


def test_corrupt_entry_is_a_miss_with_one_line_warning(tmp_path, capsys):
    cache = str(tmp_path / "c")
    store = ResultStore(cache, "fp")
    spec = _spec()
    store.put(spec, _summary(spec))

    path = store.path_for(spec.content_hash())
    # valid JSON that is not an entry object, or whose spec is not one
    entry = json.loads(json.dumps({"format": 1, "spec": [],
                                   "summary": _summary(spec)}))
    for text in ('{"format": 1, "summ',  # truncated mid-write
                 "[]", json.dumps(entry)):
        with open(path, "w") as fh:
            fh.write(text)
        fresh = ResultStore(cache, "fp")
        assert fresh.get(spec) is None, text
        assert fresh.stats.corrupt == 1
        err = capsys.readouterr().err
        lines = [ln for ln in err.splitlines() if ln]
        assert len(lines) == 1
        assert "corrupt entry" in lines[0] and "miss" in lines[0]
        assert fresh.status().corrupt == 1
        capsys.readouterr()


def test_malformed_summary_is_corrupt_not_crash(tmp_path, capsys):
    cache = str(tmp_path / "c")
    store = ResultStore(cache, "fp")
    spec = _spec()
    store.put(spec, _summary(spec))
    path = store.path_for(spec.content_hash())
    entry = json.load(open(path))
    del entry["summary"]["protocol"]
    with open(path, "w") as fh:
        json.dump(entry, fh)
    fresh = ResultStore(cache, "fp")
    assert fresh.get(spec) is None
    assert fresh.stats.corrupt == 1
    assert "corrupt entry" in capsys.readouterr().err


def test_status_and_prune(tmp_path, capsys):
    cache = str(tmp_path / "c")
    cur = ResultStore(cache, "fp-now")
    stale = ResultStore(cache, "fp-old")
    s1, s2, s3 = _spec(1), _spec(2), _spec(3)
    cur.put(s1, _summary(s1))
    stale.put(s2, _summary(s2))
    cur.put(s3, _summary(s3))
    with open(cur.path_for(s3.content_hash()), "w") as fh:
        fh.write("not json")

    st = cur.status()
    assert (st.entries, st.fresh, st.stale, st.corrupt) == (3, 1, 1, 1)
    assert st.by_scenario == {"lan": 2}
    assert st.total_bytes > 0

    removed = ResultStore(cache, "fp-now").prune()
    assert removed == 2  # the stale one and the corrupt one
    st = ResultStore(cache, "fp-now").status()
    assert (st.entries, st.fresh, st.stale, st.corrupt) == (1, 1, 0, 0)
    capsys.readouterr()  # swallow the corruption warnings
