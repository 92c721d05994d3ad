"""Classroom support: lab assignments and the broken NOCC demo protocol.

Importing this package registers ``NOCC`` in the CCP registry (if not
already present) so it shows up in the Protocols Configuration panel.
"""

from repro.classroom.assignments import (
    AssignmentReport,
    all_assignments,
    assignment_2pc_blocking,
    assignment_crash_recovery,
    assignment_deadlock,
    assignment_distributed_deadlock,
    assignment_lost_update_nocc,
    assignment_quorum_intersection,
    assignment_wal_retention,
)
from repro.classroom.nocc import NoConcurrencyController
from repro.protocols.base import ccp_registry, register_ccp

if "NOCC" not in ccp_registry():
    register_ccp("NOCC", NoConcurrencyController)

__all__ = [
    "AssignmentReport",
    "NoConcurrencyController",
    "all_assignments",
    "assignment_2pc_blocking",
    "assignment_crash_recovery",
    "assignment_deadlock",
    "assignment_distributed_deadlock",
    "assignment_lost_update_nocc",
    "assignment_quorum_intersection",
    "assignment_wal_retention",
]
