"""Tests for the experiment registry, reports and the CLI."""

import pytest

from repro.harness.cli import main
from repro.harness.experiments import (EXPERIMENTS, Report, file_sizes,
                                       run_experiment, run_experiments)


def test_registry_covers_every_paper_artifact():
    expected = {"table1", "fig3", "fig10", "fig11", "fig12", "fig13",
                "fig14", "fig15", "fig16", "scaling", "baselines"}
    assert expected <= set(EXPERIMENTS)
    ablations = {k for k in EXPERIMENTS if k.startswith("ablation-")}
    assert len(ablations) >= 7


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_file_sizes_scale():
    assert file_sizes("quick") == (2_000_000, 8_000_000)
    assert file_sizes("full") == (10_000_000, 40_000_000)


def test_report_render_contains_tables():
    rep = Report("x", "A Title")
    rep.add("tbl", ["a", "b"], [[1, 2]])
    rep.notes.append("hello")
    out = rep.render()
    assert "A Title" in out
    assert "tbl" in out
    assert "note: hello" in out
    rep.claim("one is one", 1 == 1)
    rep.claim("one is two", 1 == 2)
    assert rep.failed == ["one is two"]
    assert "\n\nclaim ✓ one is one\nclaim ✗ one is two\n\nnote: hello" \
        in rep.render()


def test_cheap_experiments_run(capsys):
    for exp in ("table1", "fig14"):
        rep = run_experiment(exp, "quick")
        assert rep.tables


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig10" in out and "ablation-fec" in out


def test_cli_list_shows_id_and_figure(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines()
                if ln.startswith("fig13 "))
    assert line.split() == ["fig13", "Figure", "13(a,b)"]


def test_reports_identical_across_execution_modes(tmp_path):
    """The same experiment through serial, 2-worker and warm-cache
    fleets renders to identical bytes."""
    from repro.fleet import Fleet

    cache = str(tmp_path / "c")
    serial = run_experiment("ablation-fec", "quick")
    cold = run_experiments(["ablation-fec"], "quick",
                           Fleet(workers=2, cache_dir=cache))
    warm_fleet = Fleet(workers=1, cache_dir=cache)
    warm = run_experiments(["ablation-fec"], "quick", warm_fleet)
    assert serial.render() == cold["ablation-fec"].render() \
        == warm["ablation-fec"].render()
    assert warm_fleet.stats.cached == 2
    assert warm_fleet.stats.executed == 0


def test_cli_runs_experiment(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "UPDATE" in out and "PROBE" in out


def _two_failures(scale=None, grid=None):
    rep = Report("table1", "stand-in")
    rep.add("tbl", ["a"], [[1]])
    rep.claim("holds", True)
    rep.claim("first failure", False)
    rep.claim("second failure", False)
    return rep


def test_cli_exits_1_on_a_failed_claim(monkeypatch, capsys):
    """Each failed claim is one stderr line and the exit status is 1;
    stdout still carries every report in full."""
    monkeypatch.setitem(EXPERIMENTS, "table1", _two_failures)
    assert main(["table1", "fig14", "--no-cache"]) == 1
    out, err = capsys.readouterr()
    assert [ln for ln in err.splitlines() if "CLAIM" in ln] == [
        "CLAIM FAILED table1: first failure",
        "CLAIM FAILED table1: second failure"]
    assert out == "".join(rep.render() + "\n\n" for rep in (
        _two_failures(), run_experiment("fig14")))


def test_cli_json_carries_claims(monkeypatch, capsys):
    import json

    monkeypatch.setitem(EXPERIMENTS, "table1", _two_failures)
    assert main(["table1", "--json", "--no-cache"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["claims"] == [
        {"text": "holds", "holds": True},
        {"text": "first failure", "holds": False},
        {"text": "second failure", "holds": False}]


def test_cli_exits_1_when_a_baseline_loses_data(monkeypatch, capsys):
    """A protocol that does not deliver fails `baselines`, where its row
    used to read "reliable NO" under exit status 0."""
    from repro.fleet import Fleet

    run_specs = Fleet.run_specs

    def polling_loses_data(self, specs):
        results = run_specs(self, specs)
        for spec in specs:
            if spec.protocol == "polling":
                results[spec.content_hash()].ok = False
        return results

    monkeypatch.setattr(Fleet, "run_specs", polling_loses_data)
    assert main(["baselines", "--no-cache"]) == 1
    out, err = capsys.readouterr()
    assert "reliable" in out and " NO" in out
    assert [ln for ln in err.splitlines() if "CLAIM" in ln] == [
        "CLAIM FAILED baselines: every protocol delivers every byte to "
        "every receiver"]


def test_cli_unknown_experiment(capsys):
    assert main(["fig99"]) == 2


def test_cli_usage_without_args(capsys):
    assert main([]) == 2
