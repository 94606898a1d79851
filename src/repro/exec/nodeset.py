"""NodeSet: folded hostname sets with group sources.

``node[0-1023]``, ``compute-0-[0-15]``, ``@compute`` — the addressing
layer every 10k-node campaign is expressed in.  A NodeSet is a set of
hostnames stored in folded form: names sharing a ``<prefix><NUM><suffix>``
shape collapse into one :class:`~repro.exec.rangeset.RangeSet` per
(prefix, suffix, padding) pattern; names with no numeric component are
kept as scalars.  Union, membership, length and ordered expansion all
operate on the folded representation.

Group sources (``@compute``, ``@cabinet0``) are resolved through a
caller-supplied resolver callable — the cluster database and the rack
layout each provide one (see :func:`frontend_groups`), and the exec lab
provides its own.  Resolution happens at parse time; a NodeSet never
holds an unresolved group.

Iteration order is always (prefix, suffix, padding, index) — sorted,
never hash order — so folding and expansion are byte-identical across
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, Optional, Union

from .rangeset import RangeSet, RangeSetParseError

__all__ = ["NodeSet", "NodeSetParseError", "GroupResolver"]


class NodeSetParseError(ValueError):
    """Malformed nodeset text or unresolvable group reference."""


#: A group resolver maps a group name (without the ``@``) to either a
#: nodeset expression string or an iterable of hostnames; it raises
#: ``KeyError`` for unknown groups.
GroupResolver = Callable[[str], Union[str, Iterable[str]]]

#: One bracketed range section: ``prefix[ranges]suffix``.
_BRACKET = re.compile(r"^([^\[\]]*)\[([^\[\]]+)\]([^\[\]]*)$")
#: Trailing digit run of a plain name: ``node007`` -> (``node``, ``007``).
_TRAILING_NUM = re.compile(r"^(.*?)(\d+)$")


def _split_outer(text: str) -> Iterator[str]:
    """Split on commas outside brackets: ``a[0,5],b`` -> ``a[0,5]``, ``b``."""
    depth = 0
    part = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise NodeSetParseError(f"unbalanced ']' in {text!r}")
        if ch == "," and depth == 0:
            yield "".join(part)
            part = []
        else:
            part.append(ch)
    if depth != 0:
        raise NodeSetParseError(f"unbalanced '[' in {text!r}")
    yield "".join(part)


class NodeSet:
    """A folded set of hostnames."""

    __slots__ = ("_patterns", "_scalars")

    def __init__(self, text: str = "", resolver: Optional[GroupResolver] = None):
        #: (prefix, suffix, padding) -> RangeSet; insertion order is
        #: irrelevant because every read path sorts the keys.
        self._patterns: dict[tuple[str, str, int], RangeSet] = {}
        #: numberless names (``gateway``), kept as a dict-as-ordered-set
        self._scalars: dict[str, None] = {}
        if text:
            self._parse(text, resolver)

    # -- construction ------------------------------------------------------
    @classmethod
    def from_names(cls, names: Iterable[str]) -> "NodeSet":
        ns = cls()
        for name in names:
            ns.add(name)
        return ns

    def _parse(self, text: str, resolver: Optional[GroupResolver]) -> None:
        for part in _split_outer(text):
            part = part.strip()
            if not part:
                raise NodeSetParseError(f"empty element in {text!r}")
            if part.startswith("@"):
                self._resolve_group(part[1:], resolver)
                continue
            m = _BRACKET.match(part)
            if m:
                prefix, ranges, suffix = m.groups()
                try:
                    rs = RangeSet(ranges)
                except RangeSetParseError as err:
                    raise NodeSetParseError(f"{part!r}: {err}") from None
                self._merge_pattern(prefix, suffix, rs)
            elif "[" in part or "]" in part:
                raise NodeSetParseError(
                    f"{part!r}: only one [ ] section per name is supported"
                )
            else:
                self.add(part)

    def _resolve_group(self, group: str, resolver: Optional[GroupResolver]) -> None:
        if resolver is None:
            raise NodeSetParseError(
                f"group @{group} used but no group source is configured"
            )
        try:
            resolved = resolver(group)
        except KeyError:
            raise NodeSetParseError(f"unknown group @{group}") from None
        if isinstance(resolved, str):
            self.update(NodeSet(resolved, resolver=resolver))
        else:
            for name in resolved:
                self.add(name)

    def _merge_pattern(self, prefix: str, suffix: str, rs: RangeSet) -> None:
        key = (prefix, suffix, rs.padding)
        have = self._patterns.get(key)
        if have is None:
            self._patterns[key] = rs.copy()
        else:
            have.update(rs)

    # -- element-level protocol --------------------------------------------
    def add(self, name: str) -> None:
        m = _TRAILING_NUM.match(name)
        if m:
            prefix, digits = m.groups()
            padding = len(digits) if len(digits) > 1 and digits[0] == "0" else 0
            rs = RangeSet(padding=padding)
            rs.add(int(digits))
            self._merge_pattern(prefix, "", rs)
        else:
            self._scalars[name] = None

    def __contains__(self, name: str) -> bool:
        if name in self._scalars:
            return True
        m = _TRAILING_NUM.match(name)
        if not m:
            return False
        prefix, digits = m.groups()
        padding = len(digits) if len(digits) > 1 and digits[0] == "0" else 0
        rs = self._patterns.get((prefix, "", padding))
        return rs is not None and int(digits) in rs

    def __len__(self) -> int:
        return sum(len(rs) for rs in self._patterns.values()) + len(self._scalars)

    def __bool__(self) -> bool:
        return bool(self._patterns) or bool(self._scalars)

    def __iter__(self) -> Iterator[str]:
        """Expanded names: patterns sorted, then indices ascending."""
        for prefix, suffix, _pad in sorted(self._patterns):
            rs = self._patterns[(prefix, suffix, _pad)]
            for num in rs.strings():
                yield f"{prefix}{num}{suffix}"
        for name in sorted(self._scalars):
            yield name

    def expand(self) -> list[str]:
        return list(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeSet):
            return NotImplemented
        mine = {k: v for k, v in self._patterns.items() if v}
        theirs = {k: v for k, v in other._patterns.items() if v}
        return mine == theirs and set(self._scalars) == set(other._scalars)

    # -- union -------------------------------------------------------------
    def update(self, other: "NodeSet") -> None:
        for (prefix, suffix, _pad), rs in other._patterns.items():
            self._merge_pattern(prefix, suffix, rs)
        for name in other._scalars:
            self._scalars[name] = None

    # -- folding -----------------------------------------------------------
    def fold(self) -> str:
        """Compact text: ``node[0-38,40-99],gateway`` (sorted patterns)."""
        parts = []
        for prefix, suffix, _pad in sorted(self._patterns):
            rs = self._patterns[(prefix, suffix, _pad)]
            if not rs:
                continue
            if len(rs) == 1:
                only = next(iter(rs.strings()))
                parts.append(f"{prefix}{only}{suffix}")
            else:
                parts.append(f"{prefix}[{rs.fold()}]{suffix}")
        parts.extend(sorted(self._scalars))
        return ",".join(parts)

    def __str__(self) -> str:
        return self.fold()

    def __repr__(self) -> str:  # pragma: no cover
        return f"NodeSet({self.fold()!r})"

