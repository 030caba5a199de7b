"""Lightweight diagnostics channel.

Non-fatal events (dropped advice, role-restriction rejections, ambiguous
subsumption, skipped prehints) are appended here by whichever component
observes them.  The evaluator writes the event log to the ``--diagnostics``
path; tests read the counters.
"""

from dataclasses import dataclass, field


@dataclass
class Diagnostics:
    events: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def note(self, kind: str, message: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.events.append(f"{kind} {message}")

    def replay(self, other: "Diagnostics") -> None:
        """Note every event of ``other`` here, in its order."""
        self.events.extend(other.events)
        for kind, n in other.counts.items():
            self.counts[kind] = self.counts.get(kind, 0) + n

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def lines(self) -> list[str]:
        return list(self.events)
