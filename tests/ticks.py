"""A guard that records its ticks, to check what an algorithm reports to its budgets."""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.runner import Guard


@dataclass
class TickLog(Guard):
    """A guard that records every tick's row count."""

    ticks: list = field(default_factory=list)

    def tick(self, rows=None):
        self.ticks.append(rows)
        super().tick(rows)
