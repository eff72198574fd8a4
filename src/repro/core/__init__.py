"""SLFE core: RR guidance, frontiers, the phase dispatch, and the engine."""

from repro.core.engine import RunResult, SLFEEngine
from repro.core.frontier import PULL, PUSH, Frontier, choose_mode
from repro.core.rrg import RRGuidance, default_roots, generate_guidance
from repro.core.state import StabilityTracker

__all__ = [
    "RunResult",
    "SLFEEngine",
    "PULL",
    "PUSH",
    "Frontier",
    "choose_mode",
    "RRGuidance",
    "default_roots",
    "generate_guidance",
    "StabilityTracker",
]
