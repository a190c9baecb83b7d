"""Terminal-friendly visualisation of grids, cycles, and occupancy."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.viz.ascii_grid": [
            "render_occupancy",
            "render_cycle",
            "render_dual_paths",
            "render_roles",
        ],
    },
)
