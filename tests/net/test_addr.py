"""Unit tests for addressing helpers."""

import pytest

from repro.net.addr import host_addr, is_multicast, mcast_addr


def test_multicast_range():
    assert is_multicast("224.0.0.1")
    assert is_multicast("239.255.255.255")
    assert not is_multicast("223.255.255.255")
    assert not is_multicast("240.0.0.1")
    assert not is_multicast("10.0.0.1")


def test_mcast_addr_distinct_groups():
    addrs = {mcast_addr(g) for g in range(300)}
    assert len(addrs) == 300
    assert all(is_multicast(a) for a in addrs)


def test_mcast_addr_range_check():
    with pytest.raises(ValueError):
        mcast_addr(-1)
    with pytest.raises(ValueError):
        mcast_addr(0x10000)


def test_host_addr_distinct():
    addrs = {host_addr(s, h) for s in range(3) for h in range(1, 100)}
    assert len(addrs) == 3 * 99
    assert all(not is_multicast(a) for a in addrs)


def test_host_addr_validation():
    with pytest.raises(ValueError):
        host_addr(256, 1)
    with pytest.raises(ValueError):
        host_addr(0, 0)


def test_malformed_address_rejected():
    with pytest.raises(ValueError):
        is_multicast("nonsense")
