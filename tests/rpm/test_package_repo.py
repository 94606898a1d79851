"""Tests for the Package model and Repository."""

import pytest

from repro.rpm import (
    EVR,
    DepFlag,
    Dependency,
    Package,
    PackageNotFound,
    Repository,
)


def test_nevra_and_filename():
    p = Package("glibc", "2.2.4", "13", arch="i686")
    assert p.nvr == "glibc-2.2.4-13"
    assert p.nevra == "glibc-2.2.4-13.i686"
    assert p.filename == "glibc-2.2.4-13.i686.rpm"


def test_epoch_shows_in_nevra():
    p = Package("openssl", "0.9.6", "3", epoch=1)
    assert p.nevra == "openssl-1:0.9.6-3.i386"


def test_source_package_filename():
    p = Package("myrinet-gm", "1.4", "1", arch="src", is_source=True)
    assert p.filename == "myrinet-gm-1.4-1.src.rpm"


def test_empty_name_rejected():
    with pytest.raises(ValueError):
        Package("", "1.0")


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        Package("x", "1.0", size=-1)


def test_nan_size_rejected():
    with pytest.raises(ValueError, match="nan"):
        Package("x", "1.0", size=float("nan"))
    assert Package("x", "1.0", size=float("inf")).size == float("inf")


def test_requires_accepts_strings_and_objects():
    p = Package("gcc", "2.96", requires=("binutils", Dependency("cpp")))
    assert all(isinstance(d, Dependency) for d in p.requires)
    assert {d.name for d in p.requires} == {"binutils", "cpp"}


def test_dependency_parse_versioned():
    d = Dependency.parse("glibc >= 2.2.4")
    assert d.flag is DepFlag.GE
    assert d.evr == EVR("2.2.4")
    assert str(d) == "glibc >= 2.2.4"


def test_dependency_parse_garbage():
    with pytest.raises(ValueError):
        Dependency.parse("a b c d")


def test_dependency_validation():
    with pytest.raises(ValueError):
        Dependency("x", DepFlag.GE, None)
    with pytest.raises(ValueError):
        Dependency("x", DepFlag.ANY, EVR("1"))


@pytest.mark.parametrize(
    "flag, evr, expect",
    [
        (DepFlag.GE, "2.0", True),
        (DepFlag.GE, "2.2.4", True),
        (DepFlag.GE, "3.0", False),
        (DepFlag.LT, "3.0", True),
        (DepFlag.LT, "2.2.4", False),
        (DepFlag.EQ, "2.2.4", True),
        (DepFlag.GT, "2.2.4", False),
        (DepFlag.LE, "2.2.4", True),
    ],
)
def test_satisfies_versioned(flag, evr, expect):
    from repro.rpm import parse_evr

    pkg = Package("glibc", "2.2.4", "13")
    dep = Dependency("glibc", flag, parse_evr(evr))
    assert pkg.satisfies(dep) is expect


def test_satisfies_via_provides():
    pkg = Package("mpich", "1.2.2", provides=("mpi",))
    assert pkg.satisfies(Dependency("mpi"))
    assert not pkg.satisfies(Dependency("lam"))


def test_newer_than():
    old = Package("kernel", "2.4.7", "10")
    new = Package("kernel", "2.4.9", "6")
    assert new.newer_than(old)
    assert not old.newer_than(new)
    with pytest.raises(ValueError):
        old.newer_than(Package("bash", "2.05"))


def test_with_update_bumps_evr():
    p = Package("wu-ftpd", "2.6.1", "18", size=350_000)
    q = p.with_update("2.6.1", "20")
    assert q.newer_than(p)
    assert q.size == p.size


# -- Repository ---------------------------------------------------------------


def repo3():
    r = Repository("test")
    r.add(Package("kernel", "2.4.7", "10"))
    r.add(Package("kernel", "2.4.9", "6"))
    r.add(Package("bash", "2.05", "8"))
    return r


def test_latest_picks_newest():
    assert repo3().latest("kernel").version == "2.4.9"


def test_versions_sorted_oldest_first():
    vs = repo3().versions("kernel")
    assert [p.version for p in vs] == ["2.4.7", "2.4.9"]


def test_missing_name_raises():
    with pytest.raises(PackageNotFound):
        repo3().latest("nonesuch")
    with pytest.raises(PackageNotFound):
        repo3().versions("nonesuch")


def test_get_returns_default():
    assert repo3().get("nonesuch") is None


def test_add_is_idempotent_for_same_build():
    r = repo3()
    n = len(r)
    r.add(Package("bash", "2.05", "8"))
    assert len(r) == n


def test_arch_filtering_includes_noarch():
    r = Repository("t")
    r.add(Package("man-pages", "1.39", arch="noarch"))
    r.add(Package("glibc", "2.2.4", arch="i386"))
    r.add(Package("glibc", "2.2.4", release="2", arch="ia64"))
    assert r.latest("man-pages", arch="ia64").arch == "noarch"
    assert r.latest("glibc", arch="ia64").arch == "ia64"
    with pytest.raises(PackageNotFound):
        r.latest("glibc", arch="alpha")


def test_whatprovides_ranks_newest_first():
    r = Repository("t")
    r.add(Package("mpich", "1.2.1", provides=("mpi",)))
    r.add(Package("mpich", "1.2.2", provides=("mpi",)))
    hits = r.whatprovides("mpi")
    assert [p.version for p in hits] == ["1.2.2", "1.2.1"]
    assert r.best_provider("mpi").version == "1.2.2"


def test_whatprovides_missing():
    with pytest.raises(PackageNotFound):
        repo3().best_provider("nonesuch")


def test_remove_clears_indexes():
    r = Repository("t")
    p = Package("mpich", "1.2.2", provides=("mpi",))
    r.add(p)
    r.remove(p)
    assert "mpich" not in r
    assert r.whatprovides("mpi") == []


def test_iteration_is_deterministic():
    a = list(repo3())
    b = list(repo3())
    assert [p.nevra for p in a] == [p.nevra for p in b]


def test_total_size():
    r = Repository("t")
    r.add(Package("a", "1", size=100))
    r.add(Package("b", "1", size=250))
    assert r.total_size() == 350
