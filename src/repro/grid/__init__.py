"""Virtual grid substrate (GAF-style partition of the surveillance area).

The paper partitions the surveillance area into an ``n x m`` grid of square
``r x r`` cells (the virtual grid model of Xu & Heidemann, MOBICOM'01).  This
subpackage provides the planar geometry primitives, the grid partition, head
election, and coverage/connectivity evaluation used by the mobility-control
algorithms in :mod:`repro.core`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.grid.geometry": ["BoundingBox", "Point"],
        "repro.grid.virtual_grid": ["GridCoord", "VirtualGrid"],
        "repro.grid.head_election": [
            "HeadElectionPolicy",
            "elect_head",
            "lowest_id_policy",
            "highest_energy_policy",
            "nearest_to_center_policy",
        ],
        "repro.grid.coverage": [
            "cell_coverage_fraction",
            "sampled_area_coverage",
            "coverage_report",
        ],
        "repro.grid.connectivity": [
            "head_connectivity_graph",
            "node_connectivity_graph",
            "is_head_network_connected",
        ],
    },
)
