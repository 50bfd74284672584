"""The ``perf`` CLI family: ``profile`` is its one subcommand.

Exit-code contract (shared with ``diff``): 0 = ok, 1 = run failed,
2 = unusable input.
"""

from repro.harness.cli import main as cli_main


def test_profile_writes_artifacts_and_snapshot(tmp_path, capsys):
    """The tax table goes to stdout and the run's artifacts -- the
    summary snapshot among them -- land in ``--out`` (coverage is held
    by tests/obs/test_perf.py)."""
    out = tmp_path / "artifacts"
    rc = cli_main(["perf", "profile", "lan", "--receivers", "2",
                   "--nbytes", "200000", "--seed", "7", "--out", str(out)])
    assert rc == 0
    assert "event-class tax table (coverage" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == [
        "lan.perfetto.json", "lan.series.csv", "lan.series.jsonl",
        "lan.summary.txt"]
    assert "profiler: hottest callback sites" in \
        (out / "lan.summary.txt").read_text()


def test_perf_usage_on_unknown_subcommand():
    assert cli_main(["perf"]) == 2
    for sub in ("bogus", "compare", "history"):
        assert cli_main(["perf", sub]) == 2
