"""Optimistic concurrency control (OCC) — backward validation at prepare.

Another protocol of the paper's "students can add protocols" family.
Execution is completely conflict-free: reads return the committed copy and
record the version observed; pre-writes just buffer.  The conflict check
happens when 2PC asks for the vote — :meth:`validate` performs backward
validation at each participant:

* every version this transaction *read* must still be current, and
* every copy it intends to overwrite must still be at the version seen at
  pre-write time, and
* it must not overlap with a transaction that already validated here and
  is awaiting its global decision (parallel validation à la Kung–Robinson:
  validated-but-uncommitted transactions win).  The check is symmetric — it
  rejects reading what the validated one writes, writing what it writes,
  *and* writing what it read.  At one site the first two suffice, because
  validation order is the serial order; across sites each site could
  validate a read-write pair in the opposite order (write skew, e.g.
  ``r[x] w[y]`` against ``r[y] w[x]`` under a read-one RCP), so a writer
  also yields to a validated reader and every site agrees on one order.

A failed validation is a NO vote, so OCC conflicts surface as **ACP
aborts** in the statistics — the protocol's signature compared to 2PL
(CCP aborts while executing) is part of what the classroom exercise is
meant to show.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.protocols.ccp.workspace import WorkspaceController
from repro.site.storage import LocalStore
from repro.sim.kernel import Simulator

__all__ = ["OptimisticController"]


@dataclass
class _Footprint:
    reads: dict[str, float] = field(default_factory=dict)  # item -> version seen
    writes: dict[str, float] = field(default_factory=dict)  # item -> version seen


class OptimisticController(WorkspaceController):
    """OCC with backward + parallel validation."""

    name = "OCC"

    def __init__(self, sim: Simulator, store: LocalStore):
        super().__init__(sim, store)
        self._footprints: dict[int, _Footprint] = {}
        self._validated: dict[int, _Footprint] = {}

    def _footprint(self, txn_id: int) -> _Footprint:
        footprint = self._footprints.get(txn_id)
        if footprint is None:
            footprint = _Footprint()
            self._footprints[txn_id] = footprint
        return footprint

    # -- operations (never wait, never reject) --------------------------------
    def read(self, txn_id: int, ts: float, item: str) -> tuple[Any, int]:
        self._check_doom(txn_id)
        written, value = self._buffered_value(txn_id, item)
        if written:
            return value, self.store.version(item)
        value, version = self.store.read(item)
        self._footprint(txn_id).reads[item] = version
        return value, version

    def prewrite(self, txn_id: int, ts: float, item: str, value: Any) -> int:
        self._check_doom(txn_id)
        self._buffer(txn_id, item, value)
        version = self.store.version(item)
        self._footprint(txn_id).writes[item] = version
        return version

    # -- validation (the OCC moment) --------------------------------------------
    def validate(self, txn_id: int) -> tuple[bool, str]:
        """Backward + parallel validation; reserves the footprint on success."""
        footprint = self._footprints.get(txn_id, _Footprint())
        # Backward: everything observed must still be current.  Reads and
        # writes are checked separately: a read-modify-write item appears
        # in both with possibly different observed versions, and merging
        # the dicts would let a fresher write base mask a stale read.
        for label, observed in (("read", footprint.reads), ("write base", footprint.writes)):
            for item, seen in observed.items():
                current = self.store.version(item)
                if current != seen:
                    return False, f"{label} of {item} moved {seen}->{current}"
        # Parallel: no overlap with validated-but-undecided transactions.
        my_reads = set(footprint.reads)
        my_writes = set(footprint.writes)
        for other_id, other in self._validated.items():
            if other_id == txn_id:
                continue
            # Symmetric: overwriting what a validated transaction read would
            # let another site order the pair the other way round.
            overlap = (my_reads | my_writes) & set(other.writes) or my_writes & set(other.reads)
            if overlap:
                return False, f"overlaps validated txn{other_id} on {sorted(overlap)}"
        self._validated[txn_id] = footprint
        return True, "validated"

    # -- termination -----------------------------------------------------------
    def commit(self, txn_id: int, versions: dict[str, int]) -> None:
        self._apply_workspace(txn_id, versions)
        self._footprints.pop(txn_id, None)
        self._validated.pop(txn_id, None)

    def abort(self, txn_id: int) -> None:
        self._drop(txn_id)
        self._footprints.pop(txn_id, None)
        self._validated.pop(txn_id, None)

    def active_transactions(self) -> set[int]:
        return set(self._workspace) | set(self._footprints)

    def clear(self) -> None:
        self._workspace.clear()
        self._doomed.clear()
        self._footprints.clear()
        self._validated.clear()
