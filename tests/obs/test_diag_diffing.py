"""Run-divergence diffing, stall watchdog and CLI glue."""

from __future__ import annotations

import pytest

from repro.harness.cli import main as cli_main
from repro.harness.runner import run_transfer
from repro.net.topology import GroupSpec
from repro.obs.diffing import diff_runs, load_run
from repro.obs.observer import Observability
from repro.obs.diag import Watchdog
from repro.trace.tracer import PacketTracer
from repro.workloads.scenarios import build_wan

LOSSY = GroupSpec("L", delay_us=20_000, loss_rate=0.02)


def _write_run(tmp_path, name, seed, nbytes=150_000):
    sc = build_wan([LOSSY] * 3, 10e6, seed=seed)
    obs = Observability(profile=False, lineage=True)
    res = run_transfer(sc, nbytes=nbytes, sndbuf=128 * 1024,
                       max_sim_s=300, obs=obs, tracer=PacketTracer())
    assert res.ok
    outdir = tmp_path / name
    obs.write_artifacts(str(outdir), prefix="wan")
    return str(outdir)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    return {"a": _write_run(tmp, "a", seed=21),
            "a2": _write_run(tmp, "a2", seed=21),
            "b": _write_run(tmp, "b", seed=22)}


# -- diffing ------------------------------------------------------------

def test_same_seed_runs_do_not_diverge(runs):
    result = diff_runs(runs["a"], runs["a2"])
    assert not result.diverged
    assert result.common_prefix > 0
    assert result.max_time_drift_us == 0
    assert "no causal divergence" in result.render()


def test_different_seeds_diverge_with_lineage(runs):
    result = diff_runs(runs["a"], runs["b"])
    assert result.diverged
    assert result.divergence_index == result.common_prefix
    # the divergent events really differ structurally
    assert result.event_a is not None and result.event_b is not None
    # both sides carry a causal chain from their saved lineage
    assert result.lineage_a and result.lineage_b
    rendered = result.render()
    assert "first causal divergence" in rendered
    assert "  A: " in rendered and "  B: " in rendered


def test_tail_divergence_when_one_run_is_longer(runs):
    run_a = load_run(runs["a"])
    run_b = load_run(runs["a2"])
    run_b.trace = run_b.trace[:-5]
    result = diff_runs(run_a, run_b)
    assert result.diverged
    assert result.event_b is None
    assert "no more events" in result.render()


def test_load_run_rejects_unusable_input(tmp_path):
    with pytest.raises(ValueError, match="not found"):
        load_run(str(tmp_path / "nope"))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="no \\*.trace.jsonl"):
        load_run(str(empty))
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "x.trace.jsonl").write_text("garbage{{{\n")
    with pytest.raises(ValueError, match="corrupt trace file"):
        load_run(str(bad))


# -- CLI exit-code contract --------------------------------------------

def test_cli_diff_exit_codes(runs, tmp_path, capsys):
    assert cli_main(["diff", runs["a"], runs["a2"]]) == 0
    assert cli_main(["diff", runs["a"], runs["b"]]) == 1
    assert cli_main(["diff", runs["a"], str(tmp_path / "gone")]) == 2
    err = capsys.readouterr().err
    assert "not found" in err
    assert "\n" in err and err.count("\n") == 1  # one-line error


def test_cli_report_offline_errors(tmp_path, capsys):
    # missing artifact directory: exit 2 + one-line stderr error
    assert cli_main(["report", "lan",
                     "--from", str(tmp_path / "missing")]) == 2
    assert "cannot read metrics summary" in capsys.readouterr().err
    # corrupt packet trace: exit 2 + one-line stderr error
    outdir = tmp_path / "corrupt"
    outdir.mkdir()
    (outdir / "lan.summary.txt").write_text("summary\n")
    (outdir / "lan.trace.jsonl").write_text("garbage{{{\n")
    assert cli_main(["report", "lan", "--from", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "cannot read trace" in err and err.count("\n") == 1


def test_cli_report_offline_renders(runs, capsys):
    assert cli_main(["report", "wan", "--from", runs["a"]]) == 0
    out = capsys.readouterr().out
    assert "metric series (simulated-time scrape)" in out


# -- watchdog -----------------------------------------------------------

def _stub_entry(time, cause=0):
    # the engine's heap-entry layout: [time, order, callback, args, cause]
    return [time, 0, lambda: None, (), cause]


class _StubSim:
    def __init__(self):
        self.now = 0
        self._entries = [_stub_entry(10), _stub_entry(20)]

    def pending(self):
        return len(self._entries)

    def pending_entries(self, limit=32):
        return self._entries[:limit]


def test_watchdog_trips_once_per_stall_episode():
    sim = _StubSim()
    progress = [0]
    dog = Watchdog(sim, lambda: (progress[0],), stall_after_us=1_000)
    assert dog.check(0) is None          # baseline signature
    assert dog.check(500) is None        # frozen, but not long enough
    report = dog.check(1_500)            # frozen past the threshold
    assert report is not None
    assert report.stalled_for_us == 1_500
    assert report.pending_events == 2
    assert len(report.frontier) == 2
    assert dog.check(2_000) is None      # same episode: no re-trip
    progress[0] = 1                      # progress resumes...
    assert dog.check(3_000) is None
    assert dog.check(5_000) is not None  # ...and a new stall re-arms it
    assert len(dog.reports) == 2


def test_cli_diff_names_lineage_for_runs_made_without_it(tmp_path, capsys):
    """`report --metrics-out` without `--lineage` writes no packet trace:
    `diff` refuses the pair and names the flag that was missing."""
    for name, seed in (("a", "21"), ("b", "22")):
        assert cli_main(["report", "wan", "--receivers", "3", "--nbytes",
                         "200000", "--seed", seed, "--metrics-out",
                         str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert cli_main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert "--lineage" in err and err.count("\n") == 1
