"""Solver run records."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SolveReport:
    """Outcome of one optimizer run: objective trace and bookkeeping."""

    method: str
    objective: float
    trace: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    wall_time_s: float = 0.0
