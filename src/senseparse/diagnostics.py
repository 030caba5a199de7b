"""Lightweight diagnostics channel.

Non-fatal events (dropped advice, role-restriction rejections, ambiguous
subsumption, skipped prehints) are appended here by whichever component
observes them, one ``<kind> <message>`` line each.  The evaluator writes
the lines to the ``--diagnostics`` path, in the order they were noted.
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

    def lines(self) -> list[str]:
        return list(self.events)
