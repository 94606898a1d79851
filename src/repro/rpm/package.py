"""The RPM package model.

The paper's management strategy rule #1 is "All software deployed on
Rocks clusters are in RPMs" — so the package is the atom of the whole
reproduction.  A :class:`Package` carries the NEVRA identity
(name-epoch-version-release-architecture), its payload size (what moves
over HTTP during a reinstall), dependency metadata (provides/requires/
obsoletes/conflicts), and optional scriptlets (%post is what Rocks's XML
node files compile into).
"""

from __future__ import annotations

import enum
import functools
import zlib
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from .version import EVR, parse_evr

__all__ = ["Package", "Dependency", "DepFlag", "NOARCH"]

NOARCH = "noarch"


class DepFlag(enum.Enum):
    """Comparison operator attached to a versioned dependency."""

    ANY = "*"  # unversioned
    EQ = "="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


@dataclass(frozen=True)
class Dependency:
    """A requires/provides/conflicts entry: name plus optional version range."""

    name: str
    flag: DepFlag = DepFlag.ANY
    evr: Optional[EVR] = None

    def __post_init__(self):
        if self.flag is not DepFlag.ANY and self.evr is None:
            raise ValueError(f"versioned dependency on {self.name!r} needs an EVR")
        if self.flag is DepFlag.ANY and self.evr is not None:
            raise ValueError(f"unversioned dependency on {self.name!r} cannot carry an EVR")

    @classmethod
    def parse(cls, text: str) -> "Dependency":
        """Parse e.g. ``"glibc >= 2.2"`` or just ``"glibc"``."""
        parts = text.split()
        if len(parts) == 1:
            return cls(parts[0])
        if len(parts) == 3:
            name, op, ver = parts
            return cls(name, DepFlag(op), parse_evr(ver))
        raise ValueError(f"cannot parse dependency {text!r}")

    def matches_evr(self, evr: EVR) -> bool:
        """Does a provider with version ``evr`` satisfy this dependency?"""
        if self.flag is DepFlag.ANY:
            return True
        assert self.evr is not None
        c = evr.compare(self.evr)
        return {
            DepFlag.EQ: c == 0,
            DepFlag.LT: c < 0,
            DepFlag.LE: c <= 0,
            DepFlag.GT: c > 0,
            DepFlag.GE: c >= 0,
        }[self.flag]

    def __str__(self) -> str:
        if self.flag is DepFlag.ANY:
            return self.name
        return f"{self.name} {self.flag.value} {self.evr}"


def _as_deps(items: Iterable) -> tuple[Dependency, ...]:
    out = []
    for item in items:
        if isinstance(item, Dependency):
            out.append(item)
        elif isinstance(item, str):
            out.append(Dependency.parse(item))
        else:
            raise TypeError(f"cannot treat {item!r} as a dependency")
    return tuple(out)


@dataclass(frozen=True)
class Package:
    """An immutable RPM package (binary or source)."""

    name: str
    version: str
    release: str = "1"
    epoch: int = 0
    arch: str = "i386"
    size: int = 1 << 20  # payload bytes; 1 MiB default
    group: str = "Unspecified"
    summary: str = ""
    requires: tuple[Dependency, ...] = ()
    provides: tuple[Dependency, ...] = ()
    obsoletes: tuple[Dependency, ...] = ()
    conflicts: tuple[Dependency, ...] = ()
    post_script: str = ""
    is_source: bool = False
    vendor: str = "Red Hat"

    def __post_init__(self):
        if not self.name:
            raise ValueError("package name cannot be empty")
        # Negated, so that NaN is rejected too.
        if not self.size >= 0:
            raise ValueError(
                f"package size must be non-negative, got {self.size!r}"
            )
        object.__setattr__(self, "requires", _as_deps(self.requires))
        object.__setattr__(self, "provides", _as_deps(self.provides))
        object.__setattr__(self, "obsoletes", _as_deps(self.obsoletes))
        object.__setattr__(self, "conflicts", _as_deps(self.conflicts))

    # -- identity ---------------------------------------------------------
    @property
    def evr(self) -> EVR:
        return EVR(self.version, self.release, self.epoch)

    # ``nvr`` and ``filename`` are read on every package fetch; the
    # fields they format are frozen, so each is formatted once.
    @functools.cached_property
    def nvr(self) -> str:
        return f"{self.name}-{self.version}-{self.release}"

    @property
    def nevra(self) -> str:
        e = f"{self.epoch}:" if self.epoch else ""
        return f"{self.name}-{e}{self.version}-{self.release}.{self.arch}"

    @functools.cached_property
    def filename(self) -> str:
        ext = "src.rpm" if self.is_source else f"{self.arch}.rpm"
        return f"{self.name}-{self.version}-{self.release}.{ext}"

    @functools.cached_property
    def checksum(self) -> str:
        """Digest of the package payload, as rpm's header MD5 would carry.

        Derived from the NEVRA and size so it is stable across processes;
        the installer compares it against what actually arrived to detect
        corrupted downloads.  Every fetch reads it twice, so it is
        computed once per package (the fields it reads are frozen).
        """
        return f"{zlib.crc32(f'{self.nevra}:{self.size}'.encode()):08x}"

    # -- semantics ----------------------------------------------------------
    def newer_than(self, other: "Package") -> bool:
        """EVR comparison; used by rocks-dist to pick most recent software."""
        if self.name != other.name:
            raise ValueError(
                f"cannot compare versions across packages "
                f"({self.name!r} vs {other.name!r})"
            )
        return self.evr.strictly_compare(other.evr) > 0

    def satisfies(self, dep: Dependency) -> bool:
        """Does installing this package satisfy ``dep``?"""
        if dep.name == self.name and dep.matches_evr(self.evr):
            return True
        return any(
            p.name == dep.name
            and (p.flag is DepFlag.ANY or p.evr is None or dep.matches_evr(p.evr))
            for p in self.provides
        )

    def with_update(self, version: str, release: str = "1") -> "Package":
        """Derive an updated build of this package (new EVR, same metadata)."""
        return replace(self, version=version, release=release)

    def __str__(self) -> str:
        return self.nevra
