"""The experiment inventory: what each experiment id regenerates, and
which bench asserts its shape claims.

The single source for ``hrmc-experiments --list``, the EXPERIMENTS.md
per-experiment table and the registry check in
:mod:`repro.harness.experiments`.  It is plain data, so listing the
experiments loads none of the code that runs them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExperimentInfo", "INVENTORY", "inventory_rows",
           "inventory_markdown"]


@dataclass(frozen=True)
class ExperimentInfo:
    """Inventory row: what an experiment regenerates, and which bench
    asserts its shape claims."""

    exp_id: str
    figure: str
    bench: str


INVENTORY: dict[str, ExperimentInfo] = {info.exp_id: info for info in (
    ExperimentInfo("table1", "Table 1",
                   "benchmarks/test_table1_packet_types.py"),
    ExperimentInfo("fig3", "Figure 3(a,b)",
                   "benchmarks/test_fig03_release_info.py"),
    ExperimentInfo("fig10", "Figure 10(a–d)",
                   "benchmarks/test_fig10_throughput_10mbps.py"),
    ExperimentInfo("fig11", "Figure 11(a–d)",
                   "benchmarks/test_fig11_feedback_10mbps.py"),
    ExperimentInfo("fig12", "Figure 12(a,b)",
                   "benchmarks/test_fig12_throughput_100mbps.py"),
    ExperimentInfo("fig13", "Figure 13(a,b)",
                   "benchmarks/test_fig13_nic_drops.py"),
    ExperimentInfo("fig14", "Figure 14(a,b)",
                   "benchmarks/test_fig14_groups.py"),
    ExperimentInfo("fig15", "Figure 15(a–c)",
                   "benchmarks/test_fig15_sim_10mbps.py"),
    ExperimentInfo("fig16", "Figure 16(a,b)",
                   "benchmarks/test_fig16_sim_100mbps.py"),
    ExperimentInfo("scaling", "§5.2 scaling claim",
                   "benchmarks/test_scaling_100rcv.py"),
    ExperimentInfo("baselines", "§6 comparison",
                   "benchmarks/test_baselines_compare.py"),
    ExperimentInfo("ablation-updates", "§3 mechanism: updates",
                   "benchmarks/test_ablation_updates.py"),
    ExperimentInfo("ablation-probes",
                   "§3 mechanism: probe-before-release",
                   "benchmarks/test_ablation_probes.py"),
    ExperimentInfo("ablation-update-timer",
                   "§3 mechanism: dynamic update timer",
                   "benchmarks/test_ablation_update_timer.py"),
    ExperimentInfo("ablation-early-probes",
                   "§6 future work (1): early probes",
                   "benchmarks/test_ablation_early_probes.py"),
    ExperimentInfo("ablation-mcast-probes",
                   "§6 future work (2): multicast probes",
                   "benchmarks/test_ablation_mcast_probes.py"),
    ExperimentInfo("ablation-minbuf",
                   "§3 MINBUF hold heuristic",
                   "benchmarks/test_ablation_minbuf.py"),
    ExperimentInfo("ablation-local-recovery",
                   "§6 future work (3): local recovery",
                   "benchmarks/test_ablation_local_recovery.py"),
    ExperimentInfo("ablation-fec",
                   "§6 future work (4): FEC",
                   "benchmarks/test_ablation_fec.py"),
    ExperimentInfo("chaos", "beyond the paper: fault injection",
                   "tests/faults/test_chaos_battery.py"),
)}


def inventory_rows() -> list[tuple[str, str, str]]:
    return [(i.exp_id, i.figure, i.bench) for i in INVENTORY.values()]


def inventory_markdown() -> str:
    """The EXPERIMENTS.md per-experiment table (kept drift-free by
    ``tests/fleet/test_grid_inventory.py``)."""
    lines = ["| id | regenerates | bench |", "|---|---|---|"]
    for exp_id, figure, bench in inventory_rows():
        lines.append(f"| `{exp_id}` | {figure} | `{bench}` |")
    return "\n".join(lines)
