"""The experiment inventory: what each experiment id regenerates.

The single source for ``hrmc-experiments --list``, the EXPERIMENTS.md
per-experiment table and the registry check in
:mod:`repro.harness.experiments`.  It is plain data, so listing the
experiments loads none of the code that runs them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExperimentInfo", "INVENTORY", "inventory_markdown"]


@dataclass(frozen=True)
class ExperimentInfo:
    """Inventory row: what an experiment regenerates."""

    exp_id: str
    figure: str


INVENTORY: dict[str, ExperimentInfo] = {info.exp_id: info for info in (
    ExperimentInfo("table1", "Table 1"),
    ExperimentInfo("fig3", "Figure 3(a,b)"),
    ExperimentInfo("fig10", "Figure 10(a–d)"),
    ExperimentInfo("fig11", "Figure 11(a–d)"),
    ExperimentInfo("fig12", "Figure 12(a,b)"),
    ExperimentInfo("fig13", "Figure 13(a,b)"),
    ExperimentInfo("fig14", "Figure 14(a,b)"),
    ExperimentInfo("fig15", "Figure 15(a–c)"),
    ExperimentInfo("fig16", "Figure 16(a,b)"),
    ExperimentInfo("scaling", "§5.2 scaling claim"),
    ExperimentInfo("baselines", "§6 comparison"),
    ExperimentInfo("ablation-updates", "§3 mechanism: updates"),
    ExperimentInfo("ablation-probes", "§3 mechanism: probe-before-release"),
    ExperimentInfo("ablation-update-timer",
                   "§3 mechanism: dynamic update timer"),
    ExperimentInfo("ablation-early-probes",
                   "§6 future work (1): early probes"),
    ExperimentInfo("ablation-mcast-probes",
                   "§6 future work (2): multicast probes"),
    ExperimentInfo("ablation-minbuf", "§3 MINBUF hold heuristic"),
    ExperimentInfo("ablation-local-recovery",
                   "§6 future work (3): local recovery"),
    ExperimentInfo("ablation-fec", "§6 future work (4): FEC"),
    ExperimentInfo("chaos", "beyond the paper: fault injection"),
    ExperimentInfo("protocol-health",
                   "beyond the paper: protocol-health gates"),
)}


def inventory_markdown() -> str:
    """The EXPERIMENTS.md per-experiment table (kept drift-free by
    ``tests/fleet/test_grid_inventory.py``)."""
    lines = ["| id | regenerates |", "|---|---|"]
    for info in INVENTORY.values():
        lines.append(f"| `{info.exp_id}` | {info.figure} |")
    return "\n".join(lines)
