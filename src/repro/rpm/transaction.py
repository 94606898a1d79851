"""Dependency resolution and install ordering (the anaconda depsolver).

Given a set of requested package names and a repository, a
:class:`Transaction` computes the dependency closure (what Kickstart
does when expanding a %packages list) and a deterministic installation
order that respects the requires graph — prerequisites first, cycles
broken at a deterministic edge, exactly the behaviour a node installer
needs to lay packages down one at a time over HTTP.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from .package import Dependency, Package
from .repository import PackageNotFound, Repository
from .rpmdb import DependencyError

__all__ = ["Transaction", "resolve", "install_order"]


class Transaction:
    """A resolved package set plus its install order."""

    def __init__(self, packages: Sequence[Package], requested: Sequence[str]):
        self.packages = list(packages)
        self.requested = list(requested)

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.packages]

    @property
    def total_size(self) -> int:
        return sum(p.size for p in self.packages)

    def __len__(self) -> int:
        return len(self.packages)

    def __iter__(self):
        return iter(self.packages)


def resolve(
    repo: Repository,
    names: Iterable[str],
    arch: Optional[str] = None,
) -> Transaction:
    """Compute the dependency closure of ``names`` against ``repo``.

    Providers are chosen deterministically: the newest build of the
    dependency's best provider.  Raises :class:`DependencyError` with the
    full requirement chain when something cannot be satisfied.
    """
    requested = list(names)
    chosen: dict[str, Package] = {}
    answering: dict[str, list[Package]] = {}  # chosen, by name answered to
    problems: list[str] = []
    queue: deque[tuple[Dependency, str]] = deque()

    for name in requested:
        queue.append((Dependency(name), "<requested>"))

    while queue:
        dep, wanted_by = queue.popleft()
        if any(p.satisfies(dep) for p in answering.get(dep.name, ())):
            continue
        try:
            if dep.flag is dep.flag.ANY and dep.name in repo:
                pkg = repo.latest(dep.name, arch=arch)
            else:
                pkg = _best_for_arch(repo, dep, arch)
        except PackageNotFound:
            problems.append(f"{wanted_by} requires {dep} (no provider)")
            continue
        if pkg.name in chosen:
            # Name already pinned but doesn't satisfy this dep: version clash.
            problems.append(
                f"{wanted_by} requires {dep} but {chosen[pkg.name].nevra} is selected"
            )
            continue
        chosen[pkg.name] = pkg
        _file_by_names(answering, pkg)
        for req in pkg.requires:
            queue.append((req, pkg.nevra))

    if problems:
        raise DependencyError(sorted(set(problems)))

    ordered = install_order(list(chosen.values()))
    return Transaction(ordered, requested)


def _file_by_names(index: dict[str, list[Package]], pkg: Package) -> None:
    """File ``pkg`` under every name it answers to: its own and each provide.

    ``pkg.satisfies(dep)`` can only hold when ``pkg`` is filed under
    ``dep.name``, so scanning that one bucket finds every match, in the
    order the packages were filed.
    """
    for name in dict.fromkeys([pkg.name, *(p.name for p in pkg.provides)]):
        index.setdefault(name, []).append(pkg)


def _best_for_arch(
    repo: Repository, dep: Dependency, arch: Optional[str]
) -> Package:
    hits = repo.whatprovides(dep)
    if arch is not None:
        hits = [p for p in hits if p.arch in (arch, "noarch")]
    if not hits:
        raise PackageNotFound(str(dep))
    return hits[0]


def install_order(packages: Sequence[Package]) -> list[Package]:
    """Topologically sort ``packages`` so prerequisites install first.

    Edges run from a package to each in-set package it requires.  Cycles
    (rpm has plenty: glibc <-> bash style) are broken deterministically by
    picking the alphabetically-first remaining package, which matches how
    rpm falls back to transaction ordering heuristics.
    """
    by_name = {p.name: p for p in packages}
    in_set = list(packages)
    answering: dict[str, list[Package]] = {}
    for pkg in in_set:
        _file_by_names(answering, pkg)

    # adjacency: pkg -> set of prerequisite package names within the set
    prereqs: dict[str, set[str]] = {}
    for pkg in in_set:
        wants: set[str] = set()
        for dep in pkg.requires:
            for other in answering.get(dep.name, ()):
                if other.name != pkg.name and other.satisfies(dep):
                    wants.add(other.name)
        prereqs[pkg.name] = wants

    ordered: list[Package] = []
    remaining = {p.name for p in in_set}
    while remaining:
        ready = sorted(
            name for name in remaining if not (prereqs[name] & remaining)
        )
        if not ready:
            # Cycle: break it at the alphabetically-first member.
            ready = [sorted(remaining)[0]]
        for name in ready:
            ordered.append(by_name[name])
            remaining.discard(name)
    return ordered
