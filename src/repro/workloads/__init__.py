"""Workload definitions: characteristic groups and scenario builders."""

from repro.workloads.groups import (GROUP_A, GROUP_B, GROUP_C, TEST_CASES,
                                    expand_test_case)
from repro.workloads.scenarios import Scenario, build_lan, build_wan

__all__ = [
    "GROUP_A", "GROUP_B", "GROUP_C", "TEST_CASES", "expand_test_case",
    "Scenario", "build_lan", "build_wan",
]
