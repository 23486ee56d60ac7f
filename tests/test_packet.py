"""Frame model: VLAN handling, sizes, tracing, copies."""

import pytest
from hypothesis import given, strategies as st

from repro.net import Frame, MacAddress
from repro.net.packet import VLAN_TAG_BYTES


def frame(**kwargs):
    defaults = dict(src_mac=MacAddress(1), dst_mac=MacAddress(2))
    defaults.update(kwargs)
    return Frame(**defaults)


class TestVlan:
    def test_push_pop_roundtrip(self):
        f = frame()
        f.push_vlan(100)
        assert f.vlan == 100
        assert f.pop_vlan() == 100
        assert f.vlan is None

    def test_double_push_rejected(self):
        f = frame(vlan=5)
        with pytest.raises(ValueError):
            f.push_vlan(6)

    def test_pop_untagged_rejected(self):
        with pytest.raises(ValueError):
            frame().pop_vlan()

    @pytest.mark.parametrize("bad", [0, 4095, -1, 5000])
    def test_vlan_range_enforced(self, bad):
        with pytest.raises(ValueError):
            frame().push_vlan(bad)

    def test_constructor_vlan_range(self):
        with pytest.raises(ValueError):
            frame(vlan=0)


class TestSize:
    def test_minimum_frame_enforced(self):
        with pytest.raises(ValueError):
            frame(size_bytes=63)

    def test_wire_size_includes_tag(self):
        f = frame(size_bytes=64)
        assert f.wire_size() == 64
        f.push_vlan(100)
        assert f.wire_size() == 64 + VLAN_TAG_BYTES


class TestTraceAndCopy:
    def test_slots_hold_no_hop_record(self):
        # Hops and latency charges live on the simulator's tracer, keyed
        # by frame id; a frame carries no per-hop state of its own.
        assert "trace" not in Frame.__slots__
        assert "timings" not in Frame.__slots__
        assert not hasattr(frame(), "__dict__")

    def test_copy_gets_fresh_identity_and_empty_trace(self):
        # A fresh frame id starts a new trace on the tracer.
        f = frame(vlan=7, flow_id=3, tenant_id=1)
        c = f.copy()
        assert c.frame_id != f.frame_id
        assert c.vlan == 7
        assert c.flow_id == 3
        assert c.tenant_id == 1

    def test_copy_is_independent(self):
        f = frame()
        c = f.copy()
        c.dst_mac = MacAddress(99)
        assert f.dst_mac == MacAddress(2)

    def test_frame_ids_monotonic(self):
        a, b = frame(), frame()
        assert b.frame_id > a.frame_id

    @given(st.integers(min_value=64, max_value=9000))
    def test_wire_size_never_smaller_than_frame(self, size):
        f = frame(size_bytes=size)
        assert f.wire_size() >= size
