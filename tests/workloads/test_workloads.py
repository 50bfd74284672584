"""Tests for workload definitions and scenario builders."""

import pytest

from repro.workloads.groups import (GROUP_A, GROUP_B, GROUP_C, LOSS_BY_ENV,
                                    expand_test_case)
from repro.workloads.scenarios import build_lan, build_wan


def test_group_parameters_match_paper():
    assert GROUP_A.delay_us == 2_000 and GROUP_A.loss_rate == 0.00005
    assert GROUP_B.delay_us == 20_000 and GROUP_B.loss_rate == 0.005
    assert GROUP_C.delay_us == 100_000 and GROUP_C.loss_rate == 0.02
    assert LOSS_BY_ENV == {"LAN": 0.00005, "MAN": 0.005, "WAN": 0.02}


def test_loss_split_90_10():
    for g in (GROUP_A, GROUP_B, GROUP_C):
        assert g.router_loss == pytest.approx(0.9 * g.loss_rate)
        assert g.nic_loss == pytest.approx(0.1 * g.loss_rate)


def test_test_cases_match_figure_14b():
    assert expand_test_case(1, 10) == [GROUP_A] * 10
    assert expand_test_case(2, 10) == [GROUP_B] * 10
    assert expand_test_case(3, 10) == [GROUP_C] * 10
    t4 = expand_test_case(4, 10)
    assert t4.count(GROUP_B) == 8 and t4.count(GROUP_C) == 2
    t5 = expand_test_case(5, 10)
    assert t5.count(GROUP_B) == 2 and t5.count(GROUP_C) == 8


def test_test_case_expansion_handles_rounding():
    out = expand_test_case(4, 7)   # 80/20 of 7
    assert len(out) == 7
    assert set(out) <= {GROUP_B, GROUP_C}


def test_build_lan_shape():
    sc = build_lan(4, 10e6, seed=1)
    assert sc.n_receivers == 4
    assert sc.sender.addr == "10.0.0.1"
    assert len({h.addr for h in sc.receivers}) == 4
    assert sc.bandwidth_bps == 10e6


def test_build_wan_places_receivers_in_groups():
    specs = [GROUP_A, GROUP_A, GROUP_C]
    sc = build_wan(specs, 10e6, seed=1)
    assert sc.n_receivers == 3
    # receivers in the same characteristic group share a site router
    wan = sc.network
    assert set(wan._group_routers) == {"A", "C"}


def test_scenario_addresses_unique():
    sc = build_wan([GROUP_B] * 20, 10e6, seed=1)
    addrs = {h.addr for h in sc.receivers} | {sc.sender.addr}
    assert len(addrs) == 21
