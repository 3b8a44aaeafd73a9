"""Tests for tertiary tape layouts (§3.2.4)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hardware.tertiary import TertiaryDevice
from repro.media.tape_layout import TapeLayout, TapeOrder, materialization_write_degree
from tests.conftest import make_object
from tests.oracles.tape import recording_schedule, repositions, wasted_fraction


@pytest.fixture
def device():
    return TertiaryDevice(bandwidth=40.0, reposition_time=5.0)


class TestCosts:
    def test_fragment_ordered_single_reposition(self, device):
        obj = make_object(num_subobjects=100, degree=4, fragment_size=10.0)
        layout = TapeLayout(TapeOrder.FRAGMENT_ORDERED)
        assert repositions(layout, obj) == 1
        assert layout.service_time(obj, device) == pytest.approx(
            5.0 + obj.size / 40.0
        )

    def test_sequential_repositions_per_subobject(self, device):
        obj = make_object(num_subobjects=100, degree=4, fragment_size=10.0)
        layout = TapeLayout(TapeOrder.SEQUENTIAL)
        assert repositions(layout, obj) == 100
        assert layout.service_time(obj, device) == pytest.approx(
            100 * 5.0 + obj.size / 40.0
        )

    def test_sequential_wastes_major_fraction(self, device):
        """The paper: sequential layouts make the tertiary spend 'a
        major fraction of its time repositioning its head'."""
        obj = make_object(num_subobjects=100, degree=2, fragment_size=10.0)
        sequential = TapeLayout(TapeOrder.SEQUENTIAL)
        ordered = TapeLayout(TapeOrder.FRAGMENT_ORDERED)
        assert wasted_fraction(sequential, obj, device) > 0.5
        assert wasted_fraction(ordered, obj, device) < 0.1

    def test_effective_bandwidth_ordering(self, device):
        obj = make_object(num_subobjects=50, degree=2, fragment_size=10.0)
        sequential = TapeLayout(TapeOrder.SEQUENTIAL)
        ordered = TapeLayout(TapeOrder.FRAGMENT_ORDERED)
        assert ordered.effective_bandwidth(obj, device) > sequential.effective_bandwidth(
            obj, device
        )


class TestWriteDegree:
    def test_paper_values(self):
        # 40 mbps tertiary over 20 mbps drives -> 2 drives per interval.
        assert materialization_write_degree(40.0, 20.0) == 2
        assert materialization_write_degree(20.0, 20.0) == 1
        assert materialization_write_degree(30.0, 20.0) == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            materialization_write_degree(0.0, 20.0)


class TestRecordingSchedule:
    def test_batches_follow_paper_example(self):
        """§3.2.4: X_{0.0},X_{0.1} then X_{1.0},X_{1.1} ... (M=2, W=2)."""
        obj = make_object(num_subobjects=3, degree=2, fragment_size=10.0)
        batches = recording_schedule(obj, write_degree=2)
        assert len(batches) == 3
        assert [(a.subobject, a.fragment) for a in batches[0]] == [(0, 0), (0, 1)]
        assert [(a.subobject, a.fragment) for a in batches[1]] == [(1, 0), (1, 1)]

    def test_partial_final_batch(self):
        obj = make_object(num_subobjects=1, degree=3, fragment_size=10.0)
        batches = recording_schedule(obj, write_degree=2)
        assert [len(b) for b in batches] == [2, 1]

    def test_every_fragment_written_once(self):
        obj = make_object(num_subobjects=4, degree=3, fragment_size=10.0)
        batches = recording_schedule(obj, write_degree=2)
        written = [address for batch in batches for address in batch]
        assert len(written) == len(set(written)) == obj.num_subobjects * obj.degree

    def test_validation(self):
        obj = make_object()
        with pytest.raises(ConfigurationError):
            recording_schedule(obj, write_degree=0)
