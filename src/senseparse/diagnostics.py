"""Lightweight diagnostics channel.

Non-fatal events (dropped advice, role-restriction rejections, ambiguous
subsumption, skipped prehints) are appended here by whichever component
observes them.  The evaluator writes the event log to the ``--diagnostics``
path; tests count its events by kind.
"""

from dataclasses import dataclass, field


@dataclass
class Diagnostics:
    events: list[str] = field(default_factory=list)

    def note(self, kind: str, message: str) -> None:
        self.events.append(f"{kind} {message}")

    def replay(self, other: "Diagnostics") -> None:
        """Note every event of ``other`` here, in its order."""
        self.events.extend(other.events)

    def count(self, kind: str) -> int:
        prefix = kind + " "
        return sum(1 for event in self.events if event.startswith(prefix))

    def lines(self) -> list[str]:
        return list(self.events)
