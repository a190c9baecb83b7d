"""The paper's contribution: Hamilton-cycle-synchronised mobility control.

* :mod:`repro.core.hamilton` — construction of the directed Hamilton cycle
  over the virtual grid (serpentine construction for grids with an even side,
  dual-path construction of Section 4 for odd-by-odd grids).
* :mod:`repro.core.replacement` — the SR scheme: the snake-like cascading
  replacement of Algorithms 1 and 2.
* :mod:`repro.core.baseline_ar` — the AR baseline of [Jiang et al., WSNS'07]:
  the same cascading idea but initiated independently by every neighbouring
  head, without Hamilton-cycle synchronisation.
* :mod:`repro.core.analysis` — the analytical model (Theorem 2, Corollary 2,
  and the moving-distance estimates behind Figures 3 and 5).
* :mod:`repro.core.protocol` — controller interface plus the bookkeeping of
  replacement processes shared by all schemes.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.hamilton": [
            "HamiltonCycle",
            "SerpentineHamiltonCycle",
            "DualPathHamiltonCycle",
            "build_hamilton_cycle",
        ],
        "repro.core.protocol": [
            "MobilityController",
            "ReplacementProcess",
            "ProcessStatus",
            "RoundOutcome",
        ],
        "repro.core.replacement": ["HamiltonReplacementController"],
        "repro.core.shortcut": ["ShortcutReplacementController"],
        "repro.core.baseline_ar": ["LocalizedReplacementController"],
        "repro.core.analysis": [
            "expected_movements",
            "expected_total_distance",
            "movement_distribution",
            "movements_series",
        ],
    },
)
