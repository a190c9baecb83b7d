"""Tests for the pluggable control-channel subsystem.

Covers the declarative :class:`~repro.network.channel.ChannelModel` layer,
the runtime delivery semantics (loss, delay, jamming, conservation), the
protocol-level ack/retry reliability layer, and — most importantly — the
seed-identity contract: running under the default perfect channel must
reproduce the pre-channel codebase bit for bit.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.broker import execute_many
from repro.experiments.catalog import load_catalog_scenario
from repro.experiments.orchestration import RunSpec, execute_run
from repro.experiments.persistence import run_key, spec_from_dict, spec_to_dict
from repro.experiments.registry import make_controller
from repro.experiments.scenario_files import (
    ScenarioValidationError,
    dumps_scenario,
    loads_scenario,
)
from repro.grid.virtual_grid import GridCoord
from repro.network.channel import (
    DEFAULT_CHANNEL,
    ChannelModel,
    build_channel,
    channel_from_dict,
    channel_to_dict,
    parse_channel_spec,
)
from repro.network.energy import energy_summary
from repro.network.messages import MessageKind
from repro.network.node import MESSAGE_COST, MOVE_COST_PER_METER
from repro.sim.engine import run_recovery
from repro.sim.rng import derive_rng
from repro.sim.scenario import ScenarioConfig, build_scenario_state

from helpers import make_hole

#: Golden pre-refactor results of the paper-baseline catalog scenario
#: (captured on the PR-4 codebase).  The default perfect channel must keep
#: reproducing them exactly — converged state, moves, distance, messages,
#: rounds — or the refactor changed the physics.
GOLDEN_PAPER_BASELINE = {
    "SR": dict(
        converged=True,
        moves=364,
        distance=1706.3136828503393,
        messages=292,
        rounds=60,
        processes=72,
    ),
    "AR": dict(
        converged=False,
        moves=296,
        distance=1399.2055902132383,
        messages=169,
        rounds=20,
        processes=206,
    ),
}


def lossy(probability: float, **kwargs) -> ChannelModel:
    return ChannelModel.with_params("lossy", drop_probability=probability, **kwargs)


# --------------------------------------------------------------------- models
class TestChannelModel:
    def test_default_is_perfect(self):
        assert DEFAULT_CHANNEL.kind == "perfect"
        assert DEFAULT_CHANNEL.reliable

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown channel kind"):
            ChannelModel(kind="carrier-pigeon")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            ChannelModel.with_params("perfect", frequency=2.4)

    def test_lossy_probability_validated(self):
        with pytest.raises(ValueError, match="drop_probability"):
            lossy(1.5)
        with pytest.raises(ValueError, match="drop_probability"):
            ChannelModel.with_params("lossy")

    def test_delayed_latency_validated(self):
        with pytest.raises(ValueError, match="latency"):
            ChannelModel.with_params("delayed", latency=0)

    def test_jammed_region_validated(self):
        with pytest.raises(ValueError, match="region"):
            ChannelModel.with_params("jammed", region=[1, 2, 3], from_round=0, until_round=5)
        with pytest.raises(ValueError, match="from_round"):
            ChannelModel.with_params(
                "jammed", region=[0, 0, 3, 3], from_round=5, until_round=5
            )

    def test_retry_knobs_validated(self):
        with pytest.raises(ValueError, match="ack_timeout"):
            lossy(0.1, ack_timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            lossy(0.1, max_retries=-1)

    def test_reliability_classification(self):
        assert ChannelModel.with_params("delayed", latency=4).reliable
        assert not lossy(0.1).reliable
        assert not ChannelModel.with_params(
            "jammed", region=[0, 0, 1, 1], from_round=0, until_round=5
        ).reliable

    def test_dict_round_trip(self):
        model = ChannelModel.with_params(
            "jammed", region=[1, 1, 4, 4], from_round=2, until_round=9, max_retries=5
        )
        assert channel_from_dict(channel_to_dict(model)) == model
        assert channel_to_dict(None) is None
        assert channel_from_dict(None) is None

    def test_parse_channel_spec(self):
        assert parse_channel_spec("perfect") == DEFAULT_CHANNEL
        assert parse_channel_spec("lossy:0.25") == lossy(0.25)
        assert parse_channel_spec("delayed:4") == ChannelModel.with_params(
            "delayed", latency=4
        )
        for bad in ("jammed", "lossy", "delayed:fast", "perfect:1"):
            with pytest.raises(ValueError):
                parse_channel_spec(bad)


# ------------------------------------------------------------------- runtime
class TestChannelRuntime:
    def _send(self, channel, round_index, source=(0, 0), target=(0, 1)):
        return channel.send(
            MessageKind.REPLACEMENT_REQUEST,
            GridCoord(*source),
            GridCoord(*target),
            round_index,
            sender_id=7,
        )

    def test_perfect_channel_one_round_latency(self):
        channel = build_channel(DEFAULT_CHANNEL, random.Random(0))
        self._send(channel, round_index=3)
        assert channel.deliver(3) == {}
        inbox = channel.deliver(4)
        assert len(inbox[GridCoord(0, 1)]) == 1
        assert channel.mean_delivery_latency == 1.0

    def test_jammed_window_and_region(self):
        model = ChannelModel.with_params(
            "jammed", region=[0, 0, 1, 1], from_round=2, until_round=4
        )
        channel = build_channel(model, random.Random(0))
        self._send(channel, round_index=1)            # before the window
        self._send(channel, round_index=2)            # jammed (source inside)
        self._send(channel, round_index=2, source=(3, 3), target=(0, 1))  # target inside
        self._send(channel, round_index=2, source=(3, 3), target=(3, 2))  # outside region
        self._send(channel, round_index=4)            # after the window
        assert channel.dropped_count == 2
        assert channel.sent_count == 5

    def test_transmissions_are_debited_even_when_dropped(self):
        channel = build_channel(lossy(1.0 - 1e-12), random.Random(0))
        charged = []
        channel.debit_hook = charged.append
        self._send(channel, 0)
        self._send(channel, 0)
        assert channel.dropped_count == 2
        assert charged == [7, 7], "the radio fired either way; both sends cost energy"

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        probability=st.floats(min_value=0.0, max_value=0.9),
        sends=st.lists(st.integers(min_value=0, max_value=20), max_size=40),
    )
    def test_conservation_no_loss_no_duplication(self, seed, probability, sends):
        """sent == delivered + dropped + in_flight, and no message is duplicated."""
        channel = build_channel(lossy(probability), random.Random(seed))
        seen_ids = set()
        for round_index, burst in enumerate(sends):
            for _ in range(burst):
                self._send(channel, round_index)
            inbox = channel.deliver(round_index)
            for messages in inbox.values():
                for message in messages:
                    assert message.message_id not in seen_ids, "duplicated delivery"
                    seen_ids.add(message.message_id)
        assert channel.sent_count == (
            channel.delivered_count + channel.dropped_count + channel.pending_count
        )
        # Drain the tail: everything still in flight is delivered exactly once.
        inbox = channel.deliver(len(sends) + 10)
        for messages in inbox.values():
            for message in messages:
                assert message.message_id not in seen_ids
                seen_ids.add(message.message_id)
        assert channel.pending_count == 0
        assert len(seen_ids) == channel.delivered_count
        assert channel.sent_count == channel.delivered_count + channel.dropped_count


# ------------------------------------------------------- seed identity (tent)
class TestSeedIdentity:
    def test_paper_baseline_matches_pre_refactor_golden_results(self):
        scenario = load_catalog_scenario("paper-16x16")
        records = scenario.execute()
        by_scheme = {record.spec.scheme: record for record in records}
        for scheme, golden in GOLDEN_PAPER_BASELINE.items():
            metrics = by_scheme[scheme].metrics
            assert by_scheme[scheme].converged == golden["converged"]
            assert metrics.total_moves == golden["moves"]
            assert metrics.total_distance == pytest.approx(golden["distance"], rel=1e-12)
            assert metrics.messages_sent == golden["messages"]
            assert metrics.rounds == golden["rounds"]
            assert metrics.processes_initiated == golden["processes"]
            assert metrics.messages_dropped == 0


# ------------------------------------------------------------ degraded links
class TestDegradedChannels:
    def _sr_baseline_spec(self, channel):
        scenario = load_catalog_scenario("paper-16x16")
        (spec,) = [s for s in scenario.run_specs() if s.scheme == "SR"]
        return dataclasses.replace(spec, channel=channel)

    def test_lossy_sr_still_converges_on_paper_baseline(self):
        record = execute_run(self._sr_baseline_spec(lossy(0.2)))
        assert record.converged
        assert record.metrics.messages_dropped > 0
        assert record.metrics.messages_sent > GOLDEN_PAPER_BASELINE["SR"]["messages"]
        # The repair work is identical — loss costs time (retries), not moves.
        assert record.metrics.total_moves == GOLDEN_PAPER_BASELINE["SR"]["moves"]
        assert record.rounds_executed > GOLDEN_PAPER_BASELINE["SR"]["rounds"]

    def test_delayed_channel_stretches_rounds_not_moves(self):
        record = execute_run(
            self._sr_baseline_spec(ChannelModel.with_params("delayed", latency=3))
        )
        assert record.converged
        assert record.metrics.total_moves == GOLDEN_PAPER_BASELINE["SR"]["moves"]
        assert record.metrics.messages_sent == GOLDEN_PAPER_BASELINE["SR"]["messages"]
        assert record.metrics.mean_delivery_latency == pytest.approx(3.0)
        assert record.rounds_executed > GOLDEN_PAPER_BASELINE["SR"]["rounds"]

    def test_lossy_trials_vary_loss_by_seed_not_movement(self):
        base = self._sr_baseline_spec(lossy(0.2))
        other = dataclasses.replace(
            base, scenario=base.scenario.with_seed(77), seed=77
        )
        first, second = execute_many([base, other])
        assert first.metrics.messages_dropped != second.metrics.messages_dropped

    def test_total_blackout_abandons_cascades_instead_of_spinning(self, rng):
        """A never-ending jam over the whole grid exhausts the retry budget."""
        from repro.network.deployment import deploy_per_cell
        from repro.network.state import WsnState
        from repro.grid.virtual_grid import VirtualGrid

        grid = VirtualGrid(4, 4, cell_size=1.0)
        state = WsnState(grid, deploy_per_cell(grid, 1, rng))  # no spares at all
        make_hole(state, GridCoord(2, 2))
        controller = make_controller("SR", state)
        blackout = ChannelModel.with_params(
            "jammed",
            region=[0, 0, 3, 3],
            from_round=0,
            until_round=10_000,
            ack_timeout=2,
            max_retries=2,
        )
        result = run_recovery(
            state, controller, rng, max_rounds=200, channel=blackout
        )
        assert not result.converged
        assert not result.exhausted, "the run must give up, not burn max_rounds"
        assert result.metrics.messages_dropped > 0
        assert controller.failed_processes >= 1
        assert controller.pending_acknowledgements == 0

    def test_energy_reconciles_with_real_sends_under_loss(self):
        """Every transmission (request, retry, ack) debits the message cost."""
        config = ScenarioConfig(
            columns=6,
            rows=6,
            communication_range=6.0,
            deployed_count=36,
            deployment="per_cell",
            seed=5,
        )
        state = build_scenario_state(config)
        make_hole(state, GridCoord(3, 3))
        controller = make_controller("SR", state)
        result = run_recovery(
            state, controller, derive_rng(5, "lossy-energy"), channel=lossy(0.3)
        )
        summary = energy_summary(state)
        expected = (
            result.metrics.total_distance * MOVE_COST_PER_METER
            + result.metrics.messages_sent * MESSAGE_COST
        )
        assert summary.total_consumed == pytest.approx(expected, rel=1e-9, abs=1e-9)
        metrics = result.metrics
        assert metrics.messages_sent == (
            metrics.messages_delivered + metrics.messages_dropped + metrics.messages_in_flight
        )


# ------------------------------------------------------------ review fixes
class TestMessagingStateHygiene:
    def test_rebinding_a_channel_clears_stale_delivery_gates(self, rng):
        """A gate waiting on a message that only exists in a previous
        channel's mailbox must not survive into the next binding.

        (Engine runs close every process via ``finalize`` on shutdown, so the
        dangerous path is a driver calling ``execute_round`` directly — e.g.
        a visualisation stepping rounds by hand — that swaps channels
        mid-cascade.)
        """
        from repro.core.replacement import HamiltonReplacementController
        from repro.core.hamilton import build_hamilton_cycle
        from repro.network.deployment import deploy_per_cell_counts
        from repro.network.state import WsnState
        from repro.grid.virtual_grid import VirtualGrid

        grid = VirtualGrid(4, 4, cell_size=1.0)
        cycle = build_hamilton_cycle(grid)
        order = cycle.order()
        counts = {coord: 1 for coord in grid.all_coords()}
        counts[order[4]] = 2  # one spare, five hops upstream of the hole
        state = WsnState(grid, deploy_per_cell_counts(grid, counts, rng))
        make_hole(state, order[9])
        controller = HamiltonReplacementController(cycle)
        controller.bind_channel(build_channel(lossy(0.999), random.Random(0)))
        controller.execute_round(state, rng, 0)  # hop sent; request lost
        assert controller._undelivered, "the cascade vacancy must be gated"
        assert controller.pending_acknowledgements == 1
        fresh = build_channel(DEFAULT_CHANNEL, random.Random(0))
        controller.bind_channel(fresh)
        assert not controller._undelivered
        assert controller.pending_acknowledgements == 0
        # The cascade resumes by observation under the fresh channel and the
        # remaining hops converge the process.
        for round_index in range(1, 10):
            controller.handle_messages(state, fresh.deliver(round_index), round_index)
            controller.execute_round(state, rng, round_index)
        assert state.hole_count == 0
        assert controller.converged_processes == 1

    def test_sr_gate_only_opens_for_the_owning_process(self, rng):
        from repro.core.replacement import HamiltonReplacementController
        from repro.core.hamilton import build_hamilton_cycle
        from repro.network.deployment import deploy_per_cell
        from repro.network.state import WsnState
        from repro.grid.virtual_grid import VirtualGrid
        from repro.network.messages import Message

        grid = VirtualGrid(4, 4, cell_size=1.0)
        state = WsnState(grid, deploy_per_cell(grid, 1, rng))
        controller = HamiltonReplacementController(build_hamilton_cycle(grid))
        controller.bind_channel(build_channel(lossy(0.5), random.Random(0)))
        owner = controller._start_process(GridCoord(1, 1), GridCoord(1, 0), 0)
        # The controller keys its gates by flat cell id.
        vacancy = grid.flat_index(GridCoord(1, 1))
        controller._vacancy_process[vacancy] = owner.process_id
        controller._undelivered.add(vacancy)

        def request(process_id):
            return Message(
                kind=MessageKind.REPLACEMENT_REQUEST,
                source_cell=GridCoord(1, 2),
                target_cell=GridCoord(1, 0),
                sent_round=0,
                process_id=process_id,
                payload={"vacancy": (1, 1)},
            )

        # A stale retransmission from a process that served this cell in an
        # earlier life must not unlock the current owner's gate.
        controller._on_request_delivered(state, request(owner.process_id + 7), 1)
        assert vacancy in controller._undelivered
        controller._on_request_delivered(state, request(owner.process_id), 1)
        assert vacancy not in controller._undelivered

    def test_ar_ignores_stale_duplicate_request_for_an_earlier_hop(self, rng):
        from repro.core.baseline_ar import LocalizedReplacementController, _CascadeState
        from repro.network.deployment import deploy_per_cell
        from repro.network.state import WsnState
        from repro.grid.virtual_grid import VirtualGrid
        from repro.network.messages import Message

        grid = VirtualGrid(4, 4, cell_size=1.0)
        state = WsnState(grid, deploy_per_cell(grid, 1, rng))
        controller = LocalizedReplacementController(grid)
        controller.bind_channel(build_channel(lossy(0.5), random.Random(0)))
        process = controller._start_process(GridCoord(2, 2), GridCoord(2, 1), 0)
        cascade = _CascadeState(
            target=grid.flat_index(GridCoord(2, 1)),
            supplier=grid.flat_index(GridCoord(2, 0)),
            awaiting_delivery=True,
        )
        controller._cascades[process.process_id] = cascade

        def request(vacancy):
            return Message(
                kind=MessageKind.REPLACEMENT_REQUEST,
                source_cell=GridCoord(2, 2),
                target_cell=GridCoord(2, 0),
                sent_round=0,
                process_id=process.process_id,
                payload={"vacancy": vacancy},
            )

        # A retransmitted copy of the *previous* hop's request must not open
        # the gate the current hop's (possibly lost) request guards.
        controller._on_request_delivered(state, request((2, 2)), 1)
        assert cascade.awaiting_delivery
        controller._on_request_delivered(state, request((2, 1)), 1)
        assert not cascade.awaiting_delivery

    def test_ar_abandonment_of_an_earlier_hops_request_spares_the_process(self, rng):
        """Only the request gating the current hop can doom the cascade."""
        from repro.core.baseline_ar import LocalizedReplacementController, _CascadeState
        from repro.core.protocol import RoundOutcome
        from repro.network.deployment import deploy_per_cell
        from repro.network.state import WsnState
        from repro.grid.virtual_grid import VirtualGrid

        grid = VirtualGrid(4, 4, cell_size=1.0)
        state = WsnState(grid, deploy_per_cell(grid, 1, rng))
        controller = LocalizedReplacementController(grid)
        controller.bind_channel(build_channel(lossy(0.5), random.Random(0)))
        process = controller._start_process(GridCoord(3, 3), GridCoord(3, 2), 0)
        cascade = _CascadeState(
            target=grid.flat_index(GridCoord(2, 2)),
            supplier=grid.flat_index(GridCoord(2, 1)),
            awaiting_delivery=True,
        )
        controller._cascades[process.process_id] = cascade
        outcome = RoundOutcome(round_index=5)
        # Hop-1's request (vacancy (3, 3)) exhausted its retries long after it
        # was delivered; the cascade has moved on to gate vacancy (2, 2).
        controller._on_request_abandoned(
            state, (process.process_id, (3, 3)), 5, outcome
        )
        assert process.is_active, "a stale hop's exhaustion must not fail the process"
        assert cascade.awaiting_delivery
        controller._on_request_abandoned(
            state, (process.process_id, (2, 2)), 5, outcome
        )
        assert process.failed

    def test_late_ack_for_an_older_request_does_not_settle_a_newer_one(self, rng):
        """(process_id, vacancy) keys can recur; the nonce keeps acks honest."""
        from repro.core.replacement import HamiltonReplacementController
        from repro.core.hamilton import build_hamilton_cycle
        from repro.network.deployment import deploy_per_cell
        from repro.network.state import WsnState
        from repro.network.messages import Message
        from repro.grid.virtual_grid import VirtualGrid

        grid = VirtualGrid(4, 4, cell_size=1.0)
        state = WsnState(grid, deploy_per_cell(grid, 1, rng))
        controller = HamiltonReplacementController(build_hamilton_cycle(grid))
        controller.bind_channel(build_channel(lossy(0.0 + 1e-9), random.Random(0)))
        head = state.head_of(GridCoord(1, 1))
        for _ in range(2):  # same (process, vacancy) tracked twice: nonces 0, 1
            controller._post_replacement_request(
                state,
                head.node_id,
                source_cell=GridCoord(1, 1),
                target_cell=GridCoord(1, 0),
                vacancy=GridCoord(2, 2),
                process_id=9,
                round_index=0,
            )
        (pending,) = controller._awaiting_ack.values()
        assert pending.nonce == 1, "the newer request owns the slot"
        stale_ack = Message(
            kind=MessageKind.REPLACEMENT_ACK,
            source_cell=GridCoord(1, 0),
            target_cell=GridCoord(1, 1),
            sent_round=0,
            process_id=9,
            payload={"vacancy": (2, 2), "req": 0},
        )
        controller.handle_messages(state, {GridCoord(1, 1): [stale_ack]}, 1)
        assert controller.pending_acknowledgements == 1, "stale ack must not settle it"
        fresh_ack = Message(
            kind=MessageKind.REPLACEMENT_ACK,
            source_cell=GridCoord(1, 0),
            target_cell=GridCoord(1, 1),
            sent_round=0,
            process_id=9,
            payload={"vacancy": (2, 2), "req": 1},
        )
        controller.handle_messages(state, {GridCoord(1, 1): [fresh_ack]}, 1)
        assert controller.pending_acknowledgements == 0

    def test_explicit_perfect_channel_normalises_to_the_default_spec(self):
        base = RunSpec(
            scenario=ScenarioConfig(columns=4, rows=4, deployed_count=32),
            scheme="SR",
            seed=3,
        )
        explicit = dataclasses.replace(base, channel=DEFAULT_CHANNEL)
        assert explicit == base
        assert explicit.channel is None
        assert run_key(explicit) == run_key(base)


# --------------------------------------------------------------- spec/threading
class TestSpecThreading:
    def test_spec_round_trips_with_channel(self):
        spec = RunSpec(
            scenario=ScenarioConfig(columns=4, rows=4, deployed_count=32),
            scheme="SR",
            seed=3,
            channel=lossy(0.1, ack_timeout=5),
        )
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_channel_is_part_of_the_cache_key(self):
        base = RunSpec(
            scenario=ScenarioConfig(columns=4, rows=4, deployed_count=32),
            scheme="SR",
            seed=3,
        )
        assert run_key(base) != run_key(dataclasses.replace(base, channel=lossy(0.1)))
        assert run_key(dataclasses.replace(base, channel=lossy(0.1))) == run_key(
            dataclasses.replace(base, channel=lossy(0.1))
        )

    def test_scenario_file_channel_table_round_trips(self):
        scenario = load_catalog_scenario("paper-16x16")
        variant = dataclasses.replace(scenario, channel=lossy(0.2))
        text = dumps_scenario(variant)
        assert "[channel]" in text
        again = loads_scenario(text)
        assert again == variant
        assert dumps_scenario(again) == text
        assert all(spec.channel == variant.channel for spec in again.run_specs())

    def test_scenario_file_channel_validation_names_the_table(self):
        scenario = load_catalog_scenario("paper-16x16")
        text = dumps_scenario(scenario) + (
            "\n[channel]\nkind = \"lossy\"\ndrop_probability = 7.0\n"
        )
        with pytest.raises(ScenarioValidationError, match="channel"):
            loads_scenario(text)
        bad_kind = dumps_scenario(scenario) + "\n[channel]\nkind = \"psychic\"\n"
        with pytest.raises(ScenarioValidationError, match="unknown channel kind"):
            loads_scenario(bad_kind)
