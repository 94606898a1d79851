"""Typed diagnostics: the shared currency of every analyzer.

The CERN and BNL follow-up papers both report that *configuration
description errors* — not hardware — dominated failed mass reinstalls.
Rocks' answer (and the original ``KickstartGenerator.lint``) was a flat
list of strings checked by eyeball.  This module replaces that with a
structured model so tools can filter, sort, render, baseline and gate
on findings mechanically:

* :class:`Diagnostic` — one finding: a stable error code (``RK101``),
  a :class:`Severity`, a source location, a message, an optional fix
  hint, an optional architecture tag, and free-form structured data;
* :class:`SourceLocation` — where it was found.  Config analyzers use
  *logical* files (``graph/default.xml``, ``nodes/mpi.xml``); the
  determinism self-linter uses real paths and line numbers;
* :data:`CODES` — the registry of every known code with its default
  severity and one-line description (rendered into README's table).

Codes are append-only and never renumbered: suppression baselines and
CI gates reference them by name.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "Severity",
    "SourceLocation",
    "Diagnostic",
    "CodeInfo",
    "CODES",
    "code_info",
]


class Severity(enum.Enum):
    """How bad a finding is; ordering is ERROR > WARNING > INFO."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SourceLocation:
    """Where a diagnostic points.

    ``file`` is a repo-relative path for real source files, or a logical
    name (``graph/default.xml``) for configuration objects that only
    exist as parsed XML.  ``line`` 0 means "the whole file".
    """

    file: str
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        if self.line <= 0:
            return self.file
        if self.column <= 0:
            return f"{self.file}:{self.line}"
        return f"{self.file}:{self.line}:{self.column}"


@dataclass
class Diagnostic:
    """One analyzer finding, stable enough to diff and baseline."""

    code: str                    # e.g. "RK101"
    severity: Severity
    message: str
    location: SourceLocation
    hint: str = ""               # how to fix it, when the pass knows
    arch: Optional[str] = None   # set when the finding is arch-conditional
    data: dict[str, Any] = field(default_factory=dict)

    @property
    def sort_key(self) -> tuple:
        """Deterministic ordering: location, then code, then message."""
        return (
            self.location.file,
            self.location.line,
            self.location.column,
            self.code,
            self.arch or "",
            self.message,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-schema-stable dict (fixed key set, sorted ``data``)."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "file": self.location.file,
            "line": self.location.line,
            "column": self.location.column,
            "hint": self.hint,
            "arch": self.arch,
            "data": {k: self.data[k] for k in sorted(self.data)},
        }

    def render(self) -> str:
        """One human-readable line (the text renderer's unit)."""
        tag = f" [{self.arch}]" if self.arch else ""
        return f"{self.location}: {self.code} {self.severity}: {self.message}{tag}"


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one diagnostic code."""

    code: str
    severity: Severity
    title: str


#: Every code any pass may emit.  Append-only; renumbering breaks
#: committed baselines.  Retired numbers (RK304, RK311–RK313) are never
#: reused.
CODES: dict[str, CodeInfo] = {
    info.code: info
    for info in [
        # -- config-graph analyzers (RK1xx) --------------------------------
        CodeInfo("RK101", Severity.ERROR,
                 "graph references a node file that is not defined"),
        CodeInfo("RK102", Severity.WARNING,
                 "node file unreachable from any appliance root"),
        CodeInfo("RK103", Severity.WARNING,
                 "graph cycle (traversal tolerates it, but it is never intent)"),
        CodeInfo("RK104", Severity.WARNING,
                 "arch-conditional edge applies to no supported architecture"),
        CodeInfo("RK105", Severity.WARNING,
                 "package declared more than once across one traversal"),
        CodeInfo("RK106", Severity.ERROR,
                 "package does not resolve against the distribution"),
        CodeInfo("RK107", Severity.ERROR,
                 "post script references a database attribute nothing provides"),
        CodeInfo("RK108", Severity.WARNING,
                 "package shadowed in the distribution by another source"),
        CodeInfo("RK109", Severity.ERROR,
                 "distribution is empty (no packages survive composition)"),
        CodeInfo("RK110", Severity.ERROR,
                 "distribution name does not resolve to a repository"),
        # -- determinism self-linter (RK2xx) -------------------------------
        CodeInfo("RK201", Severity.ERROR,
                 "wall-clock read in simulation code"),
        CodeInfo("RK202", Severity.ERROR,
                 "module-level random.* call (unseeded shared RNG)"),
        CodeInfo("RK203", Severity.WARNING,
                 "iteration over an unordered set in a hot path"),
        CodeInfo("RK204", Severity.WARNING,
                 "telemetry span opened and discarded (never closed)"),
        CodeInfo("RK206", Severity.WARNING,
                 "unbounded queue construction in a load/netsim hot path"),
        CodeInfo("RK207", Severity.WARNING,
                 "per-host serial wait loop over cluster membership in a "
                 "campaign surface"),
        CodeInfo("RK208", Severity.WARNING,
                 "span opened without a parent= in instrumented simulation "
                 "code (breaks causal attribution)"),
        # -- self-linter hazards beyond the digest comparison (RK30x) -------
        CodeInfo("RK301", Severity.ERROR,
                 "random.Random() constructed without a seed"),
        CodeInfo("RK302", Severity.WARNING,
                 "snapshot of shared mutable state captured before a yield "
                 "and consumed after it"),
        CodeInfo("RK303", Severity.WARNING,
                 "polling wait loop with no timeout, deadline or attempt "
                 "bound on the path"),
        # -- dynamic sanitizer (RK310, `repro sanitize`) -------------------
        CodeInfo("RK310", Severity.ERROR,
                 "scheduling race: digests diverge across perturbation "
                 "seeds"),
    ]
}


def code_info(code: str) -> CodeInfo:
    try:
        return CODES[code]
    except KeyError:
        raise ValueError(f"unknown diagnostic code {code!r}") from None
