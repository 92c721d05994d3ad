"""Atomic commit protocols (ACP): 2PC and the 3PC extension."""

from repro.protocols.base import register_acp
from repro.protocols.acp.three_phase_commit import ThreePhaseCommit
from repro.protocols.acp.two_phase_commit import CentralisedCommit, TwoPhaseCommit

register_acp("2PC", TwoPhaseCommit)
register_acp("3PC", ThreePhaseCommit)

__all__ = ["CentralisedCommit", "ThreePhaseCommit", "TwoPhaseCommit"]
