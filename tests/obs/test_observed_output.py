"""What an observed run reports is pinned, not eyeballed.

The observation path may get cheaper; what it reports may not change.
`PINNED_OUTPUT` holds, for two of the pinned transfers of
tests/harness/test_pinned_stats.py, the sha256 of what `report
--metrics-out` saves for a run it observes: the text summary and the
series JSONL.  `lan-2` is the loss-free shape; `wan-case-3` has NAKs,
retransmissions and parked segments, so every gauge moves.  The
series hashes were re-pinned when histogram percentiles were clamped
to the observed maximum, when `recv.rcvbuf_used_bytes` began to count
the out-of-order segments parked in the receiver (`wan-case-3` only)
and when the closing scrape moved from the run bound to 1 us after the
run's last event.  The summaries were re-pinned when the span
collector's latency and phase tables left them; the metric-series
table they keep did not move.

Re-pin only for a change that is meant to alter a report, from the
repo root:

    PYTHONPATH=src:. python -c "from tests.obs.test_observed_output \\
        import observed_output; print(observed_output('wan-case-3', '/tmp'))"
"""

import hashlib

import pytest

from repro.harness.runner import run_transfer
from repro.obs.observer import SCRAPE_INTERVAL_US, Observability
from tests.harness.test_pinned_stats import PINNED, SEED

#: name -> (text summary, series JSONL)
PINNED_OUTPUT = {
    "lan-2": (
        "5382f6195014f6243e04c2736ca48fddd6edaab29a313dbcd33d5314d7dc432c",
        "887953124caa1268d988a07e48adb16d3f5253275355b18862c34b8e7dd46486"),
    "wan-case-3": (
        "8bb88db87c78b1e1c551c9eb77f40b93cd5eb800ce76fdbcccd453a7462ed9cc",
        "0fac4a1a2ed349003e563cacaa15d3852bf0d1812e285cda4a11d49a134a8f13"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observed_output(name, outdir):
    """The two hashes of `PINNED_OUTPUT` for one run observed as
    `report` observes it, whose artifacts are written under `outdir`."""
    build, kwargs = PINNED[name][:2]
    obs = Observability()
    result = run_transfer(build(), seed=SEED, obs=obs, **kwargs)
    assert result.ok
    paths = obs.write_artifacts(str(outdir), prefix=name)
    with open(paths["summary"], "rb") as summary, \
            open(paths["series_jsonl"], "rb") as series:
        return _sha(summary.read()), _sha(series.read())


@pytest.mark.parametrize("name", PINNED_OUTPUT)
def test_observed_output_is_pinned(name, tmp_path):
    assert observed_output(name, tmp_path) == PINNED_OUTPUT[name]


def test_observation_closes_when_the_run_ends():
    """Every series ends with the closing scrape, 1 us after the run's
    last event fired -- within one scrape tick of where the bare run's
    events end, not at the run bound."""
    build, kwargs = PINNED["lan-2"][:2]
    bare, observed = build(), build()
    run_transfer(bare, seed=SEED, **kwargs)
    obs = Observability()
    run_transfer(observed, seed=SEED, obs=obs, **kwargs)
    ends = {series.t_us[-1] for series in obs.registry.series.values()}
    assert ends == {obs.finalized_at_us} == {observed.sim.last_event_us + 1}
    assert bare.sim.last_event_us < obs.finalized_at_us <= \
        bare.sim.last_event_us + SCRAPE_INTERVAL_US + 1
