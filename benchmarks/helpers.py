"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure from the paper's
evaluation.  Simulated results (minutes, MB/s) are attached to
pytest-benchmark's ``extra_info`` and printed as paper-vs-measured rows.
Table I, §6.3's server scaling and §4's chaos bar are not here: tier-1
checks them on their registry scenarios (``tests/core/test_paper_claims.py``
and ``tests/core/test_faults.py``).
"""

from __future__ import annotations

__all__ = ["print_rows"]


def print_rows(title: str, header: tuple, rows: list[tuple]) -> None:
    """Print a paper-vs-measured table to the terminal."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    print(fmt.format(*header))
    for row in rows:
        print(fmt.format(*row))
