"""The per-machine installed-package database (``/var/lib/rpm``).

Rocks answers "what version of software X do I have on node Y?" by
construction — a node's software state is fully described by its
kickstart — but the node still keeps an RPM database, and this module
models it: install/erase with dependency and conflict checks, plus
``verify`` which is exactly the consistency question the paper's
reinstall philosophy makes unnecessary to ask.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .package import Dependency, Package

__all__ = ["RpmDatabase", "RpmError", "DependencyError", "ConflictError"]


class RpmError(Exception):
    """Base class for RPM database failures."""


class DependencyError(RpmError):
    """An operation would leave unresolved requirements."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


class ConflictError(RpmError):
    """An install collides with an already-installed package."""


class RpmDatabase:
    """Installed packages on one machine."""

    def __init__(self):
        self._installed: dict[str, Package] = {}

    # -- queries (rpm -q) --------------------------------------------------
    def __len__(self) -> int:
        return len(self._installed)

    def __iter__(self) -> Iterator[Package]:
        return iter(sorted(self._installed.values(), key=lambda p: p.name))

    def __contains__(self, name: str) -> bool:
        return name in self._installed

    def query(self, name: str) -> Optional[Package]:
        """``rpm -q name`` — the installed build, or None."""
        return self._installed.get(name)

    def installed_names(self) -> list[str]:
        return sorted(self._installed)

    def provides(self, dep: Dependency | str) -> list[Package]:
        if isinstance(dep, str):
            dep = Dependency.parse(dep)
        return [p for p in self._installed.values() if p.satisfies(dep)]

    def is_satisfied(self, dep: Dependency | str) -> bool:
        return bool(self.provides(dep))

    # -- mutation (rpm -i / -e) ---------------------------------------------
    def install(self, pkg: Package, nodeps: bool = False) -> None:
        """Install one package; requires deps present unless ``nodeps``."""
        if pkg.is_source:
            raise RpmError(f"cannot install source package {pkg.nevra}")
        current = self._installed.get(pkg.name)
        if current is not None:
            if current.evr == pkg.evr:
                raise ConflictError(f"{pkg.nevra} is already installed")
            raise ConflictError(
                f"{pkg.name} already installed at {current.evr}; erase it first"
            )
        if not nodeps:
            missing = [
                str(dep)
                for dep in pkg.requires
                if not self.is_satisfied(dep) and not pkg.satisfies(dep)
            ]
            if missing:
                raise DependencyError(
                    [f"{pkg.nevra} requires {m}" for m in missing]
                )
        for conflict in pkg.conflicts:
            for other in self.provides(conflict):
                raise ConflictError(
                    f"{pkg.nevra} conflicts with installed {other.nevra}"
                )
        # Obsoletes: installing a package removes what it obsoletes.
        for obs in pkg.obsoletes:
            for victim in list(self.provides(obs)):
                self._installed.pop(victim.name, None)
        self._installed[pkg.name] = pkg

    def erase(self, name: str, force: bool = False) -> Package:
        """Remove a package; refuses to break other packages unless forced."""
        pkg = self._installed.get(name)
        if pkg is None:
            raise RpmError(f"package {name} is not installed")
        if not force:
            broken = []
            remaining = [p for p in self._installed.values() if p.name != name]
            for other in remaining:
                for dep in other.requires:
                    if pkg.satisfies(dep) and not any(
                        r.satisfies(dep) for r in remaining
                    ):
                        broken.append(f"{other.nevra} requires {dep}")
            if broken:
                raise DependencyError(broken)
        del self._installed[name]
        return pkg

    # -- verification (rpm -V across the whole set) ---------------------------
    def unsatisfied(self) -> list[str]:
        """All dangling requirements in the installed set."""
        problems = []
        for pkg in self._installed.values():
            for dep in pkg.requires:
                if not self.is_satisfied(dep):
                    problems.append(f"{pkg.nevra} requires {dep}")
        return sorted(problems)

    def verify(self) -> bool:
        """True when every installed package's requirements are met."""
        return not self.unsatisfied()

    def diff(self, other: "RpmDatabase") -> dict[str, tuple[Optional[Package], Optional[Package]]]:
        """Configuration drift between two machines: name -> (mine, theirs).

        This is the expensive question ("are nodes consistent?") that the
        paper's reinstall-to-known-state strategy exists to avoid asking.
        """
        out: dict[str, tuple[Optional[Package], Optional[Package]]] = {}
        for name in set(self._installed) | set(other._installed):
            mine = self._installed.get(name)
            theirs = other._installed.get(name)
            if mine is None or theirs is None or mine.evr != theirs.evr:
                out[name] = (mine, theirs)
        return out

    def wipe(self) -> None:
        """Reinstallation: the base OS is soft state; drop everything."""
        self._installed.clear()
