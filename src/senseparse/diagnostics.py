"""The sink for non-fatal notes.

Dropped advice, role-restriction rejections, ambiguous subsumption,
skipped prehints and the other notes go to a :class:`Diagnostics` from
whichever component observes them, one ``<kind> [<sentence id>] <message>``
line each.  The evaluator writes the lines to the ``--diagnostics`` path,
in the order they were noted.  ``DISCARD``, the default sink of every
function that notes, keeps nothing: a caller that reads no notes passes no
sink, and a component notes whether or not anyone reads it.
"""

from dataclasses import dataclass, field


@dataclass
class Diagnostics:
    events: list[str] = field(default_factory=list)

    def note(self, kind: str, message: str, sentence_id: str = "") -> None:
        prefix = f"{sentence_id} " if sentence_id else ""
        self.events.append(f"{kind} {prefix}{message}")

    def replay(self, other: "Diagnostics") -> None:
        """Note every event of ``other`` here, in its order."""
        self.events.extend(other.events)

    def lines(self) -> list[str]:
        return list(self.events)


class _Discard(Diagnostics):
    """A sink that keeps no note."""

    def note(self, kind: str, message: str, sentence_id: str = "") -> None:
        pass

    def replay(self, other: Diagnostics) -> None:
        pass


DISCARD: Diagnostics = _Discard()
