"""Wireless-sensor-network substrate: nodes, radio, deployment, failures.

This subpackage models the physical network the paper's mobility-control
algorithms operate on: sensor nodes with positions and energy, a unit-disk
radio, deployment generators, failure/attack injection, the movement model,
and the mutable network state (:class:`repro.network.state.WsnState`) that
tracks which node occupies which virtual-grid cell and which node is the grid
head.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.network.node": ["NodeRole", "NodeState", "SensorNode"],
        "repro.network.radio": ["UnitDiskRadio"],
        "repro.network.deployment": [
            "deploy_uniform",
            "deploy_per_cell",
            "deploy_grid_heads",
            "deploy_clustered",
        ],
        "repro.network.failures": [
            "FailureEvent",
            "FailureModel",
            "available_failure_kinds",
            "build_failure_model",
            "compile_failure_schedule",
            "RandomFailure",
            "RegionJammingFailure",
            "TargetedCellFailure",
            "BatteryDepletionFailure",
            "ThinningToEnabledCount",
            "CompositeFailure",
        ],
        "repro.network.energy": [
            "EnergyModel",
            "EnergySummary",
            "energy_summary",
            "recovery_energy_cost",
        ],
        "repro.network.mobility": ["MoveRecord", "MovementModel"],
        "repro.network.messages": ["Message", "MessageKind", "Mailbox"],
        "repro.network.channel": [
            "ChannelModel",
            "ChannelState",
            "ChannelStats",
            "available_channel_kinds",
            "build_channel",
            "parse_channel_spec",
        ],
        "repro.network.state": ["WsnState"],
    },
)
