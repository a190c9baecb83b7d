"""Extension baselines from the related work discussed in Section 1.

These schemes are *not* part of the paper's own evaluation (it compares SR
only against AR), but the introduction motivates SR by contrasting it with
two families of movement-assisted deployment methods:

* virtual-force methods [Wang/Cao/La Porta 2006, Zou/Chakrabarty 2003] —
  :class:`repro.baselines.virtual_force.VirtualForceController`;
* scan-based balancing (SMART) [Wu/Yang 2005] —
  :class:`repro.baselines.smart_scan.SmartScanController`.

Implementing them lets the extended benchmarks quantify the paper's
qualitative claims (slow convergence and many unnecessary movements) on the
same scenarios used for Figures 6-8.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.baselines.virtual_force": ["VirtualForceController"],
        "repro.baselines.smart_scan": ["SmartScanController"],
    },
)
