"""RangeSet: folded sets of node indices (the ClusterShell idea).

At 10k-node scale a target list is not a list — ``node0 node1 ...
node10239`` is unreadable and unshippable.  ClusterShell's answer is the
*folded range*: ``node[0-10239]``, with zero-padding (``node[001-099]``)
and step parsing (``0-30/2``).  This module is the integer half of that
idea: a set of non-negative integers that parses from and folds back to
the compact textual form.

Determinism rules apply: internal storage is a plain ``set`` of ints,
but every iteration point goes through ``sorted()`` so folding, string
output, and expansion are byte-identical regardless of hash seeding.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["RangeSet", "RangeSetParseError"]


class RangeSetParseError(ValueError):
    """Malformed range text (``"3-1"``, ``"a-b"``, negative indices...)."""


class RangeSet:
    """A set of non-negative integers with folded-text round-tripping.

    ``padding`` is the zero-fill width applied when formatting members
    (``padding=3`` renders ``7`` as ``007``); 0 means no padding.  A
    merge (:meth:`update`) keeps the widest padding so folded output
    never loses digits.
    """

    __slots__ = ("_values", "padding")

    def __init__(self, text: str = "", padding: int = 0):
        self._values: set[int] = set()
        self.padding = padding
        if text:
            self._parse(text)

    # -- parsing -----------------------------------------------------------
    def _parse(self, text: str) -> None:
        for token in text.split(","):
            token = token.strip()
            if not token:
                raise RangeSetParseError(f"empty range in {text!r}")
            step = 1
            if "/" in token:
                token, step_text = token.split("/", 1)
                try:
                    step = int(step_text)
                except ValueError:
                    raise RangeSetParseError(
                        f"bad step {step_text!r} in {text!r}"
                    ) from None
                if step <= 0:
                    raise RangeSetParseError(f"step must be positive: {text!r}")
            if "-" in token:
                lo_text, hi_text = token.split("-", 1)
            else:
                lo_text = hi_text = token
            lo = self._parse_bound(lo_text, text)
            hi = self._parse_bound(hi_text, text)
            if hi < lo:
                raise RangeSetParseError(f"reversed range {token!r} in {text!r}")
            self._values.update(range(lo, hi + 1, step))

    def _parse_bound(self, bound: str, original: str) -> int:
        if not bound.isdigit():
            raise RangeSetParseError(f"bad index {bound!r} in {original!r}")
        if len(bound) > 1 and bound[0] == "0":
            self.padding = max(self.padding, len(bound))
        return int(bound)

    # -- basic protocol ----------------------------------------------------
    def add(self, value: int) -> None:
        if value < 0:
            raise RangeSetParseError(f"negative index {value!r}")
        self._values.add(value)

    def __contains__(self, value: int) -> bool:
        return value in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __bool__(self) -> bool:
        return bool(self._values)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._values))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeSet):
            return NotImplemented
        return self._values == other._values and self.padding == other.padding

    def __hash__(self) -> int:
        return hash((frozenset(self._values), self.padding))

    # -- merging -----------------------------------------------------------
    def update(self, other: "RangeSet") -> None:
        self._values |= other._values
        self.padding = max(self.padding, other.padding)

    def copy(self) -> "RangeSet":
        out = RangeSet(padding=self.padding)
        out._values = set(self._values)
        return out

    # -- folding -----------------------------------------------------------
    def format(self, value: int) -> str:
        return f"{value:0{self.padding}d}" if self.padding else str(value)

    def runs(self) -> Iterator[tuple[int, int]]:
        """Maximal contiguous runs as (lo, hi) pairs, ascending."""
        lo = hi = None
        for v in sorted(self._values):
            if lo is None:
                lo = hi = v
            elif v == hi + 1:
                hi = v
            else:
                yield (lo, hi)
                lo = hi = v
        if lo is not None:
            yield (lo, hi)

    def fold(self) -> str:
        """The compact text form: ``"0-38,40,42-99"`` (padded as needed)."""
        parts = []
        for lo, hi in self.runs():
            if lo == hi:
                parts.append(self.format(lo))
            else:
                parts.append(f"{self.format(lo)}-{self.format(hi)}")
        return ",".join(parts)

    def strings(self) -> Iterator[str]:
        """Every member formatted, ascending."""
        for v in sorted(self._values):
            yield self.format(v)

    def __str__(self) -> str:
        return self.fold()

    def __repr__(self) -> str:  # pragma: no cover
        return f"RangeSet({self.fold()!r}, padding={self.padding})"
