"""Per-code suppression baseline.

A baseline records *accepted* findings so the linter can gate on "no
NEW problems" without forcing every historical or intentional finding
to zero first — the workflow every large static-analysis deployment
converges on.  The file format is line-oriented and diff-friendly::

    # comment
    RK203 src/repro/netsim/flows.py  # max-min rounds are order-independent

Each entry is ``CODE PATH  # justification``.  The justification is
mandatory by convention (the linter warns when it is missing): a
suppression nobody can explain is a suppression nobody can ever remove.
Matching is by exact code plus path suffix, never by line number —
baselines must survive unrelated edits to the file.

Baselines rot in the other direction too: once the underlying finding
is fixed, its entry keeps silently suppressing nothing — and would hide
a future regression at the same (code, path).  :meth:`Baseline.stale`
names those dead entries after an :meth:`~Baseline.apply`, scoped to
the codes the run could actually have emitted so a config-only run
never condemns self-lint entries; ``repro lint --prune-baseline``
rewrites the file without them, keeping every other line (comments,
section headings, blank lines) byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .diagnostics import Diagnostic

__all__ = ["BaselineEntry", "Baseline"]


@dataclass(frozen=True)
class BaselineEntry:
    """One accepted (code, path) pair with its one-line justification."""

    code: str
    path: str
    justification: str = ""

    def matches(self, diag: Diagnostic) -> bool:
        if diag.code != self.code:
            return False
        file = diag.location.file
        return file == self.path or file.endswith("/" + self.path)

    def render(self) -> str:
        line = f"{self.code} {self.path}"
        if self.justification:
            line += f"  # {self.justification}"
        return line


class Baseline:
    """A parsed suppression file applied to a diagnostic list.

    It keeps every line of the text it was parsed from, each paired
    with the entry it holds (None for a comment or blank line), so
    :meth:`render` reproduces the file and :meth:`pruned` drops only
    entry lines.
    """

    def __init__(self, entries: Iterable[BaselineEntry] = ()):
        self._lines: list[tuple[str, Optional[BaselineEntry]]] = [
            (e.render() + "\n", e) for e in entries
        ]
        #: entries that matched at least one diagnostic in the last apply()
        self.used: list[BaselineEntry] = []

    @property
    def entries(self) -> list[BaselineEntry]:
        return [e for _, e in self._lines if e is not None]

    def __len__(self) -> int:
        return len(self.entries)

    # -- parsing -----------------------------------------------------------
    @classmethod
    def from_text(cls, text: str) -> "Baseline":
        lines: list[tuple[str, Optional[BaselineEntry]]] = []
        for raw in text.splitlines(keepends=True):
            line = raw.strip()
            if not line or line.startswith("#"):
                lines.append((raw, None))
                continue
            body, _, comment = line.partition("#")
            parts = body.split()
            if len(parts) != 2:
                raise ValueError(f"bad baseline line: {raw.rstrip()!r} "
                                 "(want 'CODE PATH  # justification')")
            lines.append(
                (raw, BaselineEntry(parts[0], parts[1], comment.strip()))
            )
        baseline = cls()
        baseline._lines = lines
        return baseline

    @classmethod
    def from_file(cls, path) -> "Baseline":
        """Load a baseline; a missing file is an empty baseline."""
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_text(fh.read())
        except FileNotFoundError:
            return cls()

    # -- application -------------------------------------------------------
    def entry_for(self, diag: Diagnostic) -> Optional[BaselineEntry]:
        for entry in self.entries:
            if entry.matches(diag):
                return entry
        return None

    def apply(
        self, diagnostics: Iterable[Diagnostic]
    ) -> tuple[list[Diagnostic], list[Diagnostic]]:
        """Split into (kept, suppressed); records which entries fired."""
        kept: list[Diagnostic] = []
        suppressed: list[Diagnostic] = []
        used: dict[BaselineEntry, None] = {}
        for diag in diagnostics:
            entry = self.entry_for(diag)
            if entry is None:
                kept.append(diag)
            else:
                suppressed.append(diag)
                used[entry] = None
        self.used = list(used)
        return kept, suppressed

    def unjustified(self) -> list[BaselineEntry]:
        """Entries missing their mandatory one-line justification."""
        return [e for e in self.entries if not e.justification]

    def stale(self, possible_codes: Iterable[str]) -> list[BaselineEntry]:
        """Entries that suppressed nothing in the last :meth:`apply`.

        Only entries whose code is in ``possible_codes`` — the codes the
        run's selected passes could have emitted — are eligible: an
        entry for a pass family that did not run is unproven, not stale.
        """
        possible = set(possible_codes)
        fired = set(self.used)
        return [
            e for e in self.entries
            if e.code in possible and e not in fired
        ]

    def pruned(self, stale: Iterable[BaselineEntry]) -> "Baseline":
        """A new baseline without the given (stale) entries' lines."""
        drop = set(stale)
        baseline = Baseline()
        baseline._lines = [
            (text, e) for text, e in self._lines if e not in drop
        ]
        return baseline

    def render(self) -> str:
        return "".join(text for text, _ in self._lines)
