"""The ``perf`` CLI family: ``profile`` is its one subcommand.

Exit-code contract (shared with ``diff``): 0 = ok, 1 = run failed,
2 = unusable input.
"""

from repro.harness.cli import main as cli_main


def test_profile_writes_artifacts_and_snapshot(tmp_path):
    """The collapsed-stack snapshot lands in ``--out``, rooted at
    ``engine;`` (coverage is held by tests/obs/test_perf.py)."""
    out = tmp_path / "artifacts"
    rc = cli_main(["perf", "profile", "lan", "--receivers", "2",
                   "--nbytes", "200000", "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = (out / "lan.collapsed.txt").read_text().splitlines()
    assert lines and all(line.startswith("engine;") for line in lines)


def test_profile_html_report_embeds_flamegraph(tmp_path):
    out = tmp_path / "artifacts"
    rc = cli_main(["perf", "profile", "lan", "--receivers", "2",
                   "--nbytes", "100000", "--out", str(out), "--html"])
    assert rc == 0
    html = (out / "lan.report.html").read_text()
    assert "flamegraph" in html and "<svg" in html
    assert "event-class tax table" in html


def test_perf_usage_on_unknown_subcommand():
    assert cli_main(["perf"]) == 2
    for sub in ("bogus", "compare", "history"):
        assert cli_main(["perf", sub]) == 2
