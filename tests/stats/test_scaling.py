"""Sweep analytics: power-law fits and anomaly flags."""

import json

import pytest

from repro.stats.scaling import (DEFAULT_ANOMALY_THRESHOLDS,
                                 fit_power_law, flag_anomalies,
                                 health_cell, sweep_fits, sweep_report)


# -- fit_power_law ------------------------------------------------------

def test_fit_recovers_exact_power_law():
    # y = 3 * x^2 exactly
    fit = fit_power_law([(x, 3 * x ** 2) for x in (1, 2, 4, 8, 16)],
                        x_name="n", y_name="cost")
    assert fit is not None
    assert fit.exponent == pytest.approx(2.0)
    assert fit.coefficient == pytest.approx(3.0)
    assert fit.r2 == pytest.approx(1.0)
    assert fit.n == 5 and fit.skipped == 0
    assert fit.predict(32) == pytest.approx(3 * 32 ** 2)
    assert "cost ~" in fit.describe()


def test_fit_flat_trend_has_near_zero_exponent():
    fit = fit_power_law([(2, 50), (4, 50), (8, 50), (16, 50)])
    assert fit.exponent == pytest.approx(0.0)
    assert fit.coefficient == pytest.approx(50.0)


def test_fit_drops_untransformable_points():
    fit = fit_power_law([(1, 10), (2, 20), (0, 99), (3, -1),
                         (None, 5), (4, 40)])
    assert fit.n == 3 and fit.skipped == 3
    assert fit.exponent == pytest.approx(1.0)


def test_fit_refuses_degenerate_input():
    assert fit_power_law([]) is None
    assert fit_power_law([(2, 10)]) is None
    # distinct y but single-valued x: no law to fit
    assert fit_power_law([(2, 10), (2, 20), (2, 30)]) is None
    assert fit_power_law([(0, 1), (-1, 2)]) is None


def test_fit_to_dict_is_json_safe():
    fit = fit_power_law([(1, 2), (2, 4), (4, 8)])
    doc = json.loads(json.dumps(fit.to_dict()))
    assert doc["exponent"] == pytest.approx(1.0)
    assert set(doc) == {"x", "y", "exponent", "coefficient", "r2", "n",
                        "skipped"}


# -- health_cell flattening --------------------------------------------

PAYLOAD = {
    "group_size": 4,
    "suppression": {"effectiveness": 0.7, "naks_sent": 10,
                    "suppressed_timer": 20, "suppressed_peer": 3},
    "implosion": {"feedback_at_sender": 40, "naks_at_sender": 10,
                  "loss_events": 5, "index": 2.0},
    "repair": {"retrans_pkts": 8, "retrans_bytes": 11680,
               "redundant_ratio": 0.25},
    "lag": {"mean_us": 30_000, "worst_max_us": 90_000, "unresolved": 0},
}


def test_health_cell_flattens_payload():
    cell = health_cell(PAYLOAD, label="n=4", loss_rate=0.02,
                       throughput_bps=2_000_000)
    assert cell["label"] == "n=4"
    assert cell["group_size"] == 4
    assert cell["effectiveness"] == 0.7
    assert cell["suppressed"] == 23
    assert cell["implosion_index"] == 2.0
    assert cell["loss_rate"] == 0.02
    assert cell["throughput_mbps"] == 2.0
    assert cell["worst_lag_us"] == 90_000


def test_health_cell_grid_coordinates_beat_payload():
    assert health_cell(PAYLOAD, group_size=16)["group_size"] == 16


def test_health_cell_tolerates_partial_payload():
    cell = health_cell({"group_size": 2})
    assert cell["effectiveness"] == 0.0
    assert cell["implosion_index"] == 0.0
    assert "loss_rate" not in cell


# -- anomaly flags ------------------------------------------------------

def _cells(**overrides):
    base = {"effectiveness": 0.7, "implosion_index": 2.0,
            "redundant_ratio": 0.2, "worst_lag_us": 50_000}
    cells = []
    for i in range(5):
        cell = dict(base, label=f"n={i}")
        for key, values in overrides.items():
            if i in values:
                cell[key] = values[i]
        cells.append(cell)
    return cells


def test_anomaly_flags_implosion_rise_not_drop():
    """Direction-aware: a high implosion index regresses, a low one is
    an improvement and must NOT be flagged."""
    flags = flag_anomalies(_cells(implosion_index={0: 20.0, 1: 0.1}))
    assert [f.label for f in flags] == ["n=0"]
    assert flags[0].metric == "implosion_index"
    assert flags[0].direction == "high"
    assert "high" in flags[0].describe()


def test_anomaly_flags_effectiveness_drop_not_rise():
    flags = flag_anomalies(_cells(effectiveness={2: 0.1, 3: 0.99}))
    assert [f.label for f in flags] == ["n=2"]
    assert flags[0].direction == "low"


def test_anomaly_needs_three_cells():
    assert flag_anomalies(_cells()[:2]) == []


def test_anomaly_all_equal_cells_are_clean():
    assert flag_anomalies(_cells()) == []


def test_anomaly_custom_thresholds():
    cells = _cells(redundant_ratio={4: 0.25})
    assert flag_anomalies(cells) == []            # within default 50 %
    flags = flag_anomalies(cells, {"redundant_ratio": 0.1})
    assert [f.label for f in flags] == ["n=4"]


def test_default_thresholds_gate_the_issue_metrics():
    assert "effectiveness" in DEFAULT_ANOMALY_THRESHOLDS
    assert "redundant_ratio" in DEFAULT_ANOMALY_THRESHOLDS
    assert "implosion_index" in DEFAULT_ANOMALY_THRESHOLDS


# -- sweep_fits / sweep_report -----------------------------------------

def test_sweep_fits_feedback_vs_group():
    cells = [health_cell({"group_size": n,
                          "implosion": {"feedback_at_sender": 40 + n,
                                        "index": 2.0}},
                         group_size=n, label=f"n={n}")
             for n in (2, 4, 8)]
    fits = sweep_fits(cells)
    assert "feedback_vs_group" in fits
    assert fits["feedback_vs_group"].exponent < 0.2, \
        "near-flat feedback growth fits a near-zero exponent"
    assert "implosion_vs_group" in fits
    # loss axis absent -> repair_vs_loss absent, not crashing
    assert "repair_vs_loss" not in fits


def test_sweep_report_is_json_safe():
    cells = [health_cell(PAYLOAD, group_size=n, label=f"n={n}")
             for n in (2, 4, 8)]
    report = sweep_report(cells)
    assert json.loads(json.dumps(report)) == report
    assert set(report) == {"cells", "fits", "anomalies"}

