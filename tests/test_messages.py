"""Unit tests for the control-message mailbox (one-round delivery latency) and message ids."""

import random

import pytest

from repro.grid.virtual_grid import GridCoord
from repro.network.channel import DEFAULT_CHANNEL, ChannelModel, build_channel
from repro.network.messages import Mailbox, Message, MessageKind


def request(source, target, sent_round, process_id=None):
    return Message(
        kind=MessageKind.REPLACEMENT_REQUEST,
        source_cell=GridCoord(*source),
        target_cell=GridCoord(*target),
        sent_round=sent_round,
        process_id=process_id,
    )


class TestMailbox:
    def test_message_not_delivered_in_same_round(self):
        mailbox = Mailbox()
        mailbox.send(request((0, 0), (0, 1), sent_round=3))
        assert mailbox.deliver(current_round=3) == {}
        assert mailbox.pending_count == 1

    def test_message_delivered_next_round(self):
        mailbox = Mailbox()
        message = request((0, 0), (0, 1), sent_round=3)
        mailbox.send(message)
        delivered = mailbox.deliver(current_round=4)
        assert delivered == {GridCoord(0, 1): [message]}
        assert mailbox.pending_count == 0
        assert mailbox.delivered_count == 1

    def test_delivery_consumes_messages(self):
        mailbox = Mailbox()
        mailbox.send(request((0, 0), (0, 1), sent_round=0))
        mailbox.deliver(current_round=1)
        assert mailbox.deliver(current_round=2) == {}

    def test_messages_grouped_by_target(self):
        mailbox = Mailbox()
        mailbox.send(request((0, 0), (1, 1), sent_round=0))
        mailbox.send(request((2, 2), (1, 1), sent_round=0))
        mailbox.send(request((0, 0), (3, 3), sent_round=0))
        delivered = mailbox.deliver(current_round=1)
        assert len(delivered[GridCoord(1, 1)]) == 2
        assert len(delivered[GridCoord(3, 3)]) == 1

    def test_late_messages_stay_in_flight(self):
        mailbox = Mailbox()
        mailbox.send(request((0, 0), (0, 1), sent_round=0))
        mailbox.send(request((0, 0), (0, 1), sent_round=5))
        delivered = mailbox.deliver(current_round=1)
        assert len(delivered[GridCoord(0, 1)]) == 1
        assert mailbox.pending_count == 1

    def test_counters(self):
        mailbox = Mailbox()
        for round_index in range(3):
            mailbox.send(request((0, 0), (0, 1), sent_round=round_index))
        assert mailbox.sent_count == 3
        mailbox.deliver(current_round=10)
        assert mailbox.delivered_count == 3

    def test_clear(self):
        mailbox = Mailbox()
        mailbox.send(request((0, 0), (0, 1), sent_round=0))
        mailbox.clear()
        assert mailbox.pending_count == 0
        assert mailbox.deliver(current_round=5) == {}


def transmit(channel):
    return channel.send(
        MessageKind.REPLACEMENT_REQUEST, GridCoord(0, 0), GridCoord(0, 1), 0, sender_id=3
    )


class TestMessage:
    def test_channel_stamps_unique_sequential_ids(self):
        channel = build_channel(DEFAULT_CHANNEL, random.Random(0))
        assert [transmit(channel).message_id for _ in range(3)] == [0, 1, 2]

    def test_dropped_messages_take_ids_too(self):
        lossy = ChannelModel.with_params("lossy", drop_probability=0.5)
        channel = build_channel(lossy, random.Random(4))
        assert [transmit(channel).message_id for _ in range(12)] == list(range(12))
        assert 0 < channel.dropped_count < 12

    def test_ids_are_per_channel_hence_deterministic(self):
        # Ids are assigned by the sending channel, not a process-global
        # counter: two runs (two channels) produce identical id traces no
        # matter how many messages earlier runs in the process created.
        first = build_channel(DEFAULT_CHANNEL, random.Random(0))
        for _ in range(5):
            transmit(first)
        second = build_channel(DEFAULT_CHANNEL, random.Random(0))
        assert transmit(second).message_id == 0

    def test_unstamped_message_has_no_id(self):
        message = request((0, 0), (0, 1), 0)
        assert message.message_id is None

    def test_message_carries_process_id(self):
        message = request((0, 0), (0, 1), 0, process_id=42)
        assert message.process_id == 42
        assert message.kind is MessageKind.REPLACEMENT_REQUEST

    def test_dead_enum_members_removed(self):
        # REPLACEMENT_ACK is implemented (retry trigger on unreliable
        # channels); HEARTBEAT was never wired to anything and is gone.
        assert {kind.name for kind in MessageKind} == {
            "REPLACEMENT_REQUEST",
            "REPLACEMENT_ACK",
        }


class TestMailboxLatency:
    def test_configurable_latency(self):
        mailbox = Mailbox(latency=3)
        mailbox.send(request((0, 0), (0, 1), sent_round=0))
        assert mailbox.deliver(current_round=2) == {}
        delivered = mailbox.deliver(current_round=3)
        assert len(delivered[GridCoord(0, 1)]) == 1

    def test_latency_must_be_positive(self):
        with pytest.raises(ValueError):
            Mailbox(latency=0)
