"""Solver run records."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SolveReport:
    """Outcome of one optimizer run: final objective, its trace, and iteration count."""

    objective: float
    trace: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
