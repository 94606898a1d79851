"""The quadratic depsolver, kept as the oracle for differential tests.

:func:`resolve` checks each dependency against every package chosen so
far, and :func:`install_order` checks each requirement against every
package in the set.  :mod:`repro.rpm.transaction` scans only the
packages filed under the dependency's name, so both must return the
same package objects in the same order and raise the same problems.
"""

from collections import deque
from typing import Iterable, Optional, Sequence

from repro.rpm import Dependency, DependencyError, Package, Repository, Transaction
from repro.rpm.repository import PackageNotFound


def resolve(
    repo: Repository,
    names: Iterable[str],
    arch: Optional[str] = None,
) -> Transaction:
    requested = list(names)
    chosen: dict[str, Package] = {}
    problems: list[str] = []
    queue: deque[tuple[Dependency, str]] = deque()

    for name in requested:
        queue.append((Dependency(name), "<requested>"))

    while queue:
        dep, wanted_by = queue.popleft()
        if any(p.satisfies(dep) for p in chosen.values()):
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
        for req in pkg.requires:
            queue.append((req, pkg.nevra))

    if problems:
        raise DependencyError(sorted(set(problems)))

    ordered = install_order(list(chosen.values()))
    return Transaction(ordered, requested)


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
    by_name = {p.name: p for p in packages}
    in_set = list(packages)

    # adjacency: pkg -> set of prerequisite package names within the set
    prereqs: dict[str, set[str]] = {}
    for pkg in in_set:
        wants: set[str] = set()
        for dep in pkg.requires:
            for other in in_set:
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
