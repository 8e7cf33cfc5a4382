"""Unit tests for the unified DeliveryAccounting model."""

from __future__ import annotations

import math

from repro.runtime.accounting import DeliveryAccounting


class TestDerived:
    def test_fresh_accounting_is_clean(self):
        accounting = DeliveryAccounting()
        assert accounting.overhead_ratio == 1.0
        assert accounting.delivered_exactly_once
        assert accounting.lost == 0

    def test_overhead_ratio(self):
        accounting = DeliveryAccounting(payload_bytes=100, wire_bytes=150)
        assert accounting.overhead_ratio == 1.5

    def test_overhead_ratio_without_payload_is_infinite(self):
        accounting = DeliveryAccounting(wire_bytes=42)
        assert math.isinf(accounting.overhead_ratio)

    def test_lost_counts_missing_deliveries(self):
        accounting = DeliveryAccounting(attempted=10, delivered=7, dropped=3)
        assert accounting.lost == 3
        assert not accounting.delivered_exactly_once


class TestMerge:
    def test_merge_adds_every_field(self):
        a = DeliveryAccounting(attempted=1, payload_bytes=10, wire_bytes=12)
        b = DeliveryAccounting(attempted=2, delivered=2, ack_bytes=5)
        result = a.merge(b)
        assert result is a
        assert a.attempted == 3
        assert a.delivered == 2
        assert a.payload_bytes == 10
        assert a.wire_bytes == 12
        assert a.ack_bytes == 5

    def test_as_dict_round_trips(self):
        accounting = DeliveryAccounting(attempted=4, dropped=1)
        payload = accounting.as_dict()
        assert payload["attempted"] == 4
        assert payload["dropped"] == 1
        assert DeliveryAccounting(**payload) == accounting

