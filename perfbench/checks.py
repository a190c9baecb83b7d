"""Correctness gate: invariants every run record must satisfy, and canonical record hashing.

Records are checked in their persisted JSON form (``record_to_dict``), which is
also what the HTTP service returns, so one set of checks covers every workload.

The ledger, Theorem-2 and energy checks restate three oracles of
``repro.experiments.differential`` on purpose.  The benchmark judges later
changes to the program, so its gate must not move with the code it judges:
a change that weakened an oracle in ``src/`` would otherwise weaken the
benchmark's ``failed`` count in the same stroke.  The copy also rejects an
energy-model record with an empty series, which the oracle lets pass.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, List, Mapping, Optional, Sequence

#: Joules of float slack allowed when reconciling energy books.
ENERGY_TOLERANCE = 1e-6


def canonical(record: Mapping) -> str:
    """The canonical JSON text of a record dict (sorted keys, no whitespace)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def records_sha256(records: Iterable[Mapping]) -> str:
    """SHA-256 over the canonical texts of ``records``, in order."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(canonical(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def record_violations(record: Mapping) -> List[str]:
    """Every invariant ``record`` breaks (empty when it is correct).

    * the message ledger balances: ``sent == delivered + dropped + in_flight``;
    * SR-family runs obey the hard Theorem-2 bound ``moves <= processes x cells``
      (one cascade shifts at most one node per cell of the Hamilton path);
    * runs with an energy model reconcile their books: consumption within the
      installed capacity, a non-increasing remaining-energy series, and a
      final sample equal to the summary's remaining total.
    """
    spec = record["spec"]
    metrics = record["metrics"]
    scheme = spec["scheme"]
    violations = []
    accounted = (
        metrics["messages_delivered"]
        + metrics["messages_dropped"]
        + metrics["messages_in_flight"]
    )
    if metrics["messages_sent"] != accounted:
        violations.append(
            f"{scheme}: sent {metrics['messages_sent']} messages but delivered "
            f"+ dropped + in-flight = {accounted}"
        )
    if scheme.startswith("SR"):
        cells = spec["scenario"]["columns"] * spec["scenario"]["rows"]
        bound = metrics["processes_initiated"] * cells
        if metrics["total_moves"] > bound:
            violations.append(
                f"{scheme}: {metrics['total_moves']} moves exceed the Theorem-2 "
                f"bound {bound}"
            )
    if spec.get("energy") is not None:
        violations.extend(
            _energy_violations(scheme, metrics.get("energy"), record["energy_series"])
        )
    return violations


def _energy_violations(
    scheme: str, summary: Optional[Mapping], series: Sequence[float]
) -> List[str]:
    if summary is None:
        return [f"{scheme}: energy model ran but the record has no energy summary"]
    violations = []
    consumed = summary["total_consumed"]
    installed = summary["initial_energy_total"]
    if not -ENERGY_TOLERANCE <= consumed <= installed + ENERGY_TOLERANCE:
        violations.append(
            f"{scheme}: consumed {consumed} J, outside [0, {installed}] J installed"
        )
    if any(later > earlier + ENERGY_TOLERANCE for earlier, later in zip(series, series[1:])):
        violations.append(f"{scheme}: remaining-energy series increases")
    if not series or abs(series[-1] - summary["total_energy"]) > ENERGY_TOLERANCE:
        violations.append(
            f"{scheme}: final series sample disagrees with the summary's "
            f"{summary['total_energy']} J"
        )
    return violations


def repeat_violations(first: Mapping, repeat: Mapping) -> List[str]:
    """A served repeat must be answered from the store with the first answer's record."""
    violations = []
    if not repeat.get("cached"):
        violations.append("repeat request was not answered from the store")
    if repeat.get("record") != first.get("record"):
        violations.append("repeat record differs from the first answer")
    return violations


def recompute_differs(record: Mapping) -> bool:
    """Whether re-executing ``record``'s spec from scratch gives a different record.

    The rerun bypasses every cache (``state_cache=None``, no record store), so
    it is the reference any cached, streamed or traced path must match.
    """
    from repro.experiments.orchestration import execute_run
    from repro.experiments.persistence import record_to_dict, spec_from_dict

    spec = spec_from_dict(record["spec"])
    try:
        fresh = execute_run(spec, state_cache=None)
    except TypeError:  # a program without a state cache has no such argument
        fresh = execute_run(spec)
    return canonical(record_to_dict(fresh)) != canonical(record)
