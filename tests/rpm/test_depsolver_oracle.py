"""The indexed depsolver against the quadratic oracle.

:mod:`repro.rpm.transaction` tests a dependency only against the
packages filed under its name; :mod:`.quadratic_depsolver` tests it
against every package.  Both must pick the same package objects, put
them in the same install order and report the same problems.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distribution import RocksDist
from repro.core.kickstart import KickstartGenerator, default_graph, default_node_files
from repro.rpm import (
    DepFlag,
    DependencyError,
    Package,
    Repository,
    UpdateStream,
    community_packages,
    install_order,
    npaci_packages,
    resolve,
    stock_redhat,
)

from . import quadratic_depsolver as quadratic


def same_objects(got, want):
    assert [id(p) for p in got] == [id(p) for p in want]


def assert_resolves_like_oracle(repo, names, arch=None):
    """Resolve both ways; return the transaction, or None on problems."""
    try:
        want = quadratic.resolve(repo, names, arch=arch)
    except DependencyError as err:
        with pytest.raises(DependencyError) as raised:
            resolve(repo, names, arch=arch)
        assert raised.value.problems == err.problems
        return None
    got = resolve(repo, names, arch=arch)
    assert got.requested == want.requested
    same_objects(got, want)
    return got


# -- the synthesized distribution ---------------------------------------------


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_appliance_profiles_match_oracle(seed):
    """The frontend and compute %packages lists, resolved against the
    rocks-dist merge of stock and updates (one build per name) and
    against the raw stock-plus-updates union (several builds per name,
    no contrib or local packages, so some requests cannot resolve)."""
    stock = stock_redhat(seed=seed)
    updates = UpdateStream(stock, seed=seed).updates_repository()
    dist = RocksDist.standard(
        stock,
        updates=updates,
        contrib=community_packages(),
        local=npaci_packages(),
    ).dist()
    union = Repository("stock+updates", [*stock, *updates])
    generator = KickstartGenerator(
        default_graph(), default_node_files(), lambda name: dist.repository
    )
    for appliance in ("frontend", "compute"):
        names = generator.kickstart(appliance, "i386", dist.name).packages
        tx = assert_resolves_like_oracle(dist.repository, names, arch="i386")
        assert tx is not None and len(tx) > 100
        assert assert_resolves_like_oracle(union, names, arch="i386") is None
    everything = list(union)
    same_objects(install_order(everything), quadratic.install_order(everything))


# -- drawn repositories -------------------------------------------------------

REAL = ["a", "b", "c", "d", "e"]
VIRTUAL = ["mpi", "sh"]
VERSIONS = ["1", "2", "3"]


def dependency(names):
    """A requires/provides string: unversioned or under any DepFlag."""
    flags = [f for f in DepFlag if f is not DepFlag.ANY]
    return st.one_of(
        st.sampled_from(names),
        st.builds(
            lambda n, f, v: f"{n} {f.value} {v}",
            st.sampled_from(names),
            st.sampled_from(flags),
            st.sampled_from(VERSIONS),
        ),
    )


package_st = st.builds(
    Package,
    name=st.sampled_from(REAL),
    version=st.sampled_from(VERSIONS),
    release=st.sampled_from(["1", "2"]),
    arch=st.sampled_from(["i386", "ia64", "noarch"]),
    # any name may be required, so cycles and unmet versions occur
    requires=st.lists(dependency(REAL + VIRTUAL), max_size=3),
    # a real name among the provides makes a second provider of it
    provides=st.lists(dependency(VIRTUAL + REAL), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(
    pkgs=st.lists(package_st, min_size=1, max_size=10),
    requested=st.lists(
        st.sampled_from(REAL + VIRTUAL + ["missing"]), min_size=1, max_size=4
    ),
    arch=st.sampled_from([None, "i386", "ia64"]),
)
def test_drawn_repositories_match_oracle(pkgs, requested, arch):
    """Virtual provides, every DepFlag, cycles, several providers of one
    name, version clashes and an arch filter: same choice, same order,
    same problems."""
    # a plain noarch build of every real name lets most draws resolve
    repo = Repository("drawn", pkgs + [Package(n, "1", arch="noarch") for n in REAL])
    assert_resolves_like_oracle(repo, requested, arch=arch)
    # several builds of one name in the set, in the repository's order
    everything = list(repo)
    same_objects(install_order(everything), quadratic.install_order(everything))
