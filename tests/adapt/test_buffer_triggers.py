"""Feedback buffer and adaptation-trigger policies."""

import numpy as np
import pytest

from repro.adapt import (
    AccuracyDropTrigger,
    FeedbackBuffer,
    StalenessTrigger,
)
from repro.serve import BatchRecord, ServeStats

SHAPE = (3,)


def _fill(buffer, count, correct=True, offset=0):
    for index in range(count):
        label = index + offset
        prediction = label if correct else label + 1
        buffer.add(np.full(SHAPE, float(label)), label, prediction)


class TestFeedbackBuffer:
    def test_add_and_len(self):
        buffer = FeedbackBuffer(capacity=8)
        _fill(buffer, 3)
        assert len(buffer) == 3
        assert buffer.total_added == 3

    def test_capacity_evicts_oldest(self):
        buffer = FeedbackBuffer(capacity=4)
        _fill(buffer, 6)
        assert len(buffer) == 4
        assert buffer.total_added == 6
        dataset = buffer.snapshot()
        # Samples 0 and 1 were evicted; 2..5 remain in order.
        assert list(dataset.labels) == [2, 3, 4, 5]

    def test_add_copies_input(self):
        buffer = FeedbackBuffer()
        x = np.zeros(SHAPE)
        buffer.add(x, 0)
        x[:] = 99.0
        assert float(buffer.snapshot().inputs.max()) == 0.0

    def test_accuracy_full_and_windowed(self):
        buffer = FeedbackBuffer()
        _fill(buffer, 4, correct=False)
        _fill(buffer, 4, correct=True, offset=4)
        assert buffer.accuracy() == 0.5
        assert buffer.accuracy(window=4) == 1.0

    def test_accuracy_without_predictions(self):
        buffer = FeedbackBuffer()
        buffer.add(np.zeros(SHAPE), 1)
        assert buffer.accuracy() is None

    def test_judged_counts_only_predicted_samples(self):
        buffer = FeedbackBuffer()
        for _ in range(5):
            buffer.add(np.zeros(SHAPE), 0)  # unjudged
        _fill(buffer, 3, correct=True, offset=5)
        assert buffer.judged() == 3
        assert buffer.judged(window=2) == 2

    def test_window_must_be_positive(self):
        buffer = FeedbackBuffer()
        _fill(buffer, 4)
        with pytest.raises(ValueError, match="window"):
            buffer.accuracy(window=0)
        with pytest.raises(ValueError, match="window"):
            buffer.judged(window=0)

    def test_snapshot_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            FeedbackBuffer().snapshot()

    def test_clear_keeps_total(self):
        buffer = FeedbackBuffer()
        _fill(buffer, 3)
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.total_added == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FeedbackBuffer(capacity=0)


class TestAccuracyDropTrigger:
    def test_holds_below_min_feedback(self):
        trigger = AccuracyDropTrigger(0.9, max_drop=0.1, min_feedback=8)
        buffer = FeedbackBuffer()
        _fill(buffer, 4, correct=False)
        assert not trigger.evaluate(ServeStats(), buffer, now=0.0)

    def test_fires_on_drop(self):
        trigger = AccuracyDropTrigger(0.9, max_drop=0.1, min_feedback=4)
        buffer = FeedbackBuffer()
        _fill(buffer, 8, correct=False)
        decision = trigger.evaluate(ServeStats(), buffer, now=0.0)
        assert decision.fire
        assert "0.800" in decision.reason  # the floor: 0.9 - 0.1

    def test_holds_within_tolerance(self):
        trigger = AccuracyDropTrigger(0.9, max_drop=0.2, min_feedback=4)
        buffer = FeedbackBuffer()
        _fill(buffer, 7, correct=True)
        _fill(buffer, 1, correct=False, offset=7)
        assert not trigger.evaluate(ServeStats(), buffer, now=0.0)

    def test_window_sees_recovery(self):
        trigger = AccuracyDropTrigger(0.9, max_drop=0.1, min_feedback=4, window=4)
        buffer = FeedbackBuffer()
        _fill(buffer, 8, correct=False)
        _fill(buffer, 4, correct=True, offset=8)
        assert not trigger.evaluate(ServeStats(), buffer, now=0.0)

    def test_holds_without_predictions(self):
        trigger = AccuracyDropTrigger(0.9, min_feedback=1)
        buffer = FeedbackBuffer()
        buffer.add(np.zeros(SHAPE), 0)
        assert not trigger.evaluate(ServeStats(), buffer, now=0.0)

    def test_gate_counts_judged_samples_not_raw_buffer_size(self):
        """Many unjudged samples plus one wrong prediction must not fire."""
        trigger = AccuracyDropTrigger(0.9, max_drop=0.1, min_feedback=16)
        buffer = FeedbackBuffer()
        for _ in range(32):
            buffer.add(np.zeros(SHAPE), 0)  # unjudged
        buffer.add(np.zeros(SHAPE), 0, prediction=1)  # one wrong verdict
        assert not trigger.evaluate(ServeStats(), buffer, now=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AccuracyDropTrigger(1.5)
        with pytest.raises(ValueError):
            AccuracyDropTrigger(0.9, max_drop=0.0)
        with pytest.raises(ValueError):
            AccuracyDropTrigger(0.9, min_feedback=0)
        with pytest.raises(ValueError):
            AccuracyDropTrigger(0.9, window=0)


def _serve(stats, requests):
    """Record ``requests`` more served requests through the atomic recorder."""
    stats.record_batch(BatchRecord(batch_id=0, size=requests, compute_seconds=0.0), [])


class TestStalenessTrigger:
    def test_requires_a_condition(self):
        with pytest.raises(ValueError):
            StalenessTrigger()

    def test_age_fires_relative_to_first_evaluation(self):
        trigger = StalenessTrigger(max_age_s=10.0)
        buffer = FeedbackBuffer()
        assert not trigger.evaluate(ServeStats(), buffer, now=100.0)
        assert not trigger.evaluate(ServeStats(), buffer, now=105.0)
        decision = trigger.evaluate(ServeStats(), buffer, now=110.0)
        assert decision.fire
        assert "10.0s" in decision.reason

    def test_requests_fire_and_reset(self):
        trigger = StalenessTrigger(max_requests=100)
        buffer = FeedbackBuffer()
        stats = ServeStats()
        # Traffic served before the trigger was attached must not count:
        # the first evaluation anchors the request baseline.
        _serve(stats, 500)
        assert not trigger.evaluate(stats, buffer, now=0.0)
        _serve(stats, 99)
        assert not trigger.evaluate(stats, buffer, now=0.0)
        _serve(stats, 1)
        assert trigger.evaluate(stats, buffer, now=0.0).fire
        trigger.reset(stats, now=0.0)
        assert not trigger.evaluate(stats, buffer, now=0.0)
        _serve(stats, 100)
        assert trigger.evaluate(stats, buffer, now=0.0).fire

    def test_reset_rebases_age(self):
        trigger = StalenessTrigger(max_age_s=10.0)
        buffer = FeedbackBuffer()
        trigger.evaluate(ServeStats(), buffer, now=0.0)
        trigger.reset(ServeStats(), now=8.0)
        assert not trigger.evaluate(ServeStats(), buffer, now=12.0)
        assert trigger.evaluate(ServeStats(), buffer, now=18.0).fire

    def test_age_fires_on_injected_clock(self, fake_clock):
        # The trigger's whole timeline runs off the deterministic test
        # clock: no wall-time read, no sleeping, exact firing point.
        trigger = StalenessTrigger(max_age_s=10.0)
        buffer = FeedbackBuffer()
        assert not trigger.evaluate(ServeStats(), buffer, now=fake_clock())
        fake_clock.advance(9.999)
        assert not trigger.evaluate(ServeStats(), buffer, now=fake_clock())
        fake_clock.advance(0.001)
        decision = trigger.evaluate(ServeStats(), buffer, now=fake_clock())
        assert decision.fire
        assert decision.trigger == "staleness"

    def test_decisions_name_their_trigger_kind(self):
        staleness = StalenessTrigger(max_requests=1)
        buffer = FeedbackBuffer()
        stats = ServeStats()
        staleness.evaluate(stats, buffer, now=0.0)
        _serve(stats, 10)
        assert staleness.evaluate(stats, buffer, now=0.0).trigger == "staleness"
        drop = AccuracyDropTrigger(baseline_accuracy=1.0, max_drop=0.1, min_feedback=4)
        _fill(buffer, 8, correct=False)
        assert drop.evaluate(stats, buffer, now=0.0).trigger == "accuracy_drop"
