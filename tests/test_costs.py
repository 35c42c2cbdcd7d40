"""Tests for the cost model arithmetic."""

import dataclasses

import pytest

from repro.costs import DEFAULT_COSTS, CostModel


class TestPacketArithmetic:
    def test_wisconsin_tuples_per_packet(self):
        # 208-byte tuples in a 2 KB packet: 9 whole tuples.
        assert DEFAULT_COSTS.tuples_per_packet(208) == 9

    def test_result_tuples_per_packet(self):
        assert DEFAULT_COSTS.tuples_per_packet(416) == 4

    def test_oversized_tuple_still_one_per_packet(self):
        assert DEFAULT_COSTS.tuples_per_packet(5000) == 1

    def test_invalid_tuple_bytes(self):
        with pytest.raises(ValueError):
            DEFAULT_COSTS.tuples_per_packet(0)

    def test_wire_time(self):
        assert DEFAULT_COSTS.packet_wire_time() == pytest.approx(
            2048 / 10e6)
        assert DEFAULT_COSTS.packet_wire_time(1024) == pytest.approx(
            1024 / 10e6)


class TestPageArithmetic:
    def test_wisconsin_tuples_per_page(self):
        # 208-byte tuples in an 8 KB page: 39 tuples.
        assert DEFAULT_COSTS.tuples_per_page(208) == 39


class TestFilterArithmetic:
    def test_paper_bits_per_site(self):
        """The paper's 1 973 bits/site at 8 joining sites (§4.2)."""
        assert DEFAULT_COSTS.filter_bits_per_site(8) == 1973

    def test_bits_scale_with_fewer_sites(self):
        assert (DEFAULT_COSTS.filter_bits_per_site(4)
                > DEFAULT_COSTS.filter_bits_per_site(8))

    def test_invalid_sites(self):
        with pytest.raises(ValueError):
            DEFAULT_COSTS.filter_bits_per_site(0)


class TestScaled:
    def test_cpu_scaling(self):
        faster = DEFAULT_COSTS.scaled(cpu=0.5)
        assert faster.tuple_scan == pytest.approx(
            DEFAULT_COSTS.tuple_scan * 0.5)
        assert faster.packet_protocol_send == pytest.approx(
            DEFAULT_COSTS.packet_protocol_send * 0.5)
        # Disk untouched.
        assert (faster.disk_page_read_sequential
                == DEFAULT_COSTS.disk_page_read_sequential)

    def test_disk_scaling(self):
        slower = DEFAULT_COSTS.scaled(disk=2.0)
        assert slower.disk_page_write_random == pytest.approx(
            DEFAULT_COSTS.disk_page_write_random * 2.0)
        assert slower.tuple_probe == DEFAULT_COSTS.tuple_probe

    def test_network_scaling_raises_wire_time(self):
        slower = DEFAULT_COSTS.scaled(network=2.0)
        assert slower.packet_wire_time() == pytest.approx(
            2 * DEFAULT_COSTS.packet_wire_time())

    def test_model_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_COSTS.tuple_scan = 1.0  # type: ignore[misc]

    def test_override_single_field(self):
        custom = CostModel(page_size=4096)
        assert custom.tuples_per_page(208) == 19
        assert DEFAULT_COSTS.page_size == 8192


def test_all_cost_constants_positive():
    for field in dataclasses.fields(CostModel):
        if field.name == "eos_tree_arity":
            continue  # a protocol choice, not a cost: 0 = the flat rule
        value = getattr(DEFAULT_COSTS, field.name)
        if isinstance(value, (int, float)):
            assert value > 0, f"{field.name} must be positive"
