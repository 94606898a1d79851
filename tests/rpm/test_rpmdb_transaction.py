"""Tests for the installed-package database and the transaction solver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpm import (
    ConflictError,
    DependencyError,
    Dependency,
    Package,
    Repository,
    RpmDatabase,
    RpmError,
    install_order,
    resolve,
)

from . import quadratic_depsolver as quadratic


def base_pkgs():
    return [
        Package("glibc", "2.2.4", "13", size=21_000_000),
        Package("bash", "2.05", "8", requires=("glibc",)),
        Package("openssl", "0.9.6b", "8", requires=("glibc",)),
        Package("openssh", "2.9p2", "7", requires=("openssl",)),
    ]


def test_install_and_query():
    db = RpmDatabase()
    for p in base_pkgs():
        db.install(p)
    assert len(db) == 4
    assert db.query("bash").version == "2.05"
    assert "openssh" in db
    assert db.verify()


def test_install_missing_dep_fails():
    db = RpmDatabase()
    with pytest.raises(DependencyError, match="glibc"):
        db.install(Package("bash", "2.05", requires=("glibc",)))


def test_install_nodeps_skips_check():
    db = RpmDatabase()
    db.install(Package("bash", "2.05", requires=("glibc",)), nodeps=True)
    assert not db.verify()
    assert db.unsatisfied() == ["bash-2.05-1.i386 requires glibc"]


def test_double_install_rejected():
    db = RpmDatabase()
    db.install(Package("glibc", "2.2.4"))
    with pytest.raises(ConflictError):
        db.install(Package("glibc", "2.2.4"))
    with pytest.raises(ConflictError, match="upgrade"):
        db.install(Package("glibc", "2.2.5"))


def test_source_package_not_installable():
    db = RpmDatabase()
    with pytest.raises(RpmError, match="source"):
        db.install(Package("gm", "1.4", arch="src", is_source=True))


def test_conflicts_block_install():
    db = RpmDatabase()
    db.install(Package("sendmail", "8.11"))
    with pytest.raises(ConflictError):
        db.install(Package("postfix", "1.1", conflicts=("sendmail",)))


def test_obsoletes_removes_victim():
    db = RpmDatabase()
    db.install(Package("fileutils", "4.1"))
    db.install(Package("coreutils", "5.0", obsoletes=("fileutils",)))
    assert "fileutils" not in db
    assert "coreutils" in db


def test_erase_protects_dependents():
    db = RpmDatabase()
    for p in base_pkgs():
        db.install(p)
    with pytest.raises(DependencyError, match="openssh"):
        db.erase("openssl")
    db.erase("openssh")
    db.erase("openssl")  # now fine


def test_erase_force():
    db = RpmDatabase()
    for p in base_pkgs():
        db.install(p)
    db.erase("glibc", force=True)
    assert not db.verify()


def test_erase_missing():
    with pytest.raises(RpmError):
        RpmDatabase().erase("nothing")


def test_upgrade_replaces_and_reports_old():
    db = RpmDatabase()
    db.install(Package("glibc", "2.2.4", "13"))
    old = db.upgrade(Package("glibc", "2.2.4", "19"))
    assert old.release == "13"
    assert db.query("glibc").release == "19"


def test_upgrade_refuses_downgrade():
    db = RpmDatabase()
    db.install(Package("glibc", "2.2.4", "19"))
    with pytest.raises(ConflictError, match="not newer"):
        db.upgrade(Package("glibc", "2.2.4", "13"))


def test_upgrade_fresh_install_returns_none():
    db = RpmDatabase()
    assert db.upgrade(Package("glibc", "2.2.4")) is None


def test_diff_detects_drift():
    a, b = RpmDatabase(), RpmDatabase()
    a.install(Package("glibc", "2.2.4", "13"))
    b.install(Package("glibc", "2.2.4", "19"))
    b.install(Package("bash", "2.05"), nodeps=True)
    drift = a.diff(b)
    assert set(drift) == {"glibc", "bash"}
    assert drift["bash"][0] is None


def test_clone_and_wipe():
    db = RpmDatabase()
    db.install(Package("glibc", "2.2.4"))
    snap = db.clone_state()
    db.wipe()
    assert len(db) == 0
    assert len(snap) == 1


# -- transaction solver -------------------------------------------------------


def cluster_repo():
    r = Repository("dist")
    r.add_all(base_pkgs())
    r.add(Package("mpich", "1.2.2", requires=("gcc",), provides=("mpi",)))
    r.add(Package("gcc", "2.96", requires=("binutils", "glibc")))
    r.add(Package("binutils", "2.11.90", requires=("glibc",)))
    r.add(Package("hpl", "1.0", requires=("mpi",)))
    return r


def test_resolve_closure():
    tx = resolve(cluster_repo(), ["openssh"])
    assert set(tx.names) == {"openssh", "openssl", "glibc"}


def test_resolve_virtual_provide():
    tx = resolve(cluster_repo(), ["hpl"])
    assert "mpich" in tx.names  # provider of 'mpi'
    assert "gcc" in tx.names


def test_resolve_missing_reports_chain():
    r = Repository("dist")
    r.add(Package("bash", "2.05", requires=("glibc",)))
    with pytest.raises(DependencyError) as exc:
        resolve(r, ["bash"])
    assert "bash-2.05-1.i386 requires glibc" in str(exc.value)


def test_resolve_missing_requested():
    with pytest.raises(DependencyError, match="<requested>"):
        resolve(cluster_repo(), ["nonesuch"])


def test_resolve_picks_newest():
    r = cluster_repo()
    r.add(Package("openssl", "0.9.6b", "12", requires=("glibc",)))
    tx = resolve(r, ["openssh"])
    chosen = {p.name: p for p in tx}
    assert chosen["openssl"].release == "12"


def test_resolve_respects_arch():
    r = Repository("dist")
    r.add(Package("glibc", "2.2.4", arch="i386"))
    r.add(Package("glibc", "2.2.4", arch="ia64"))
    r.add(Package("man-pages", "1.39", arch="noarch"))
    tx = resolve(r, ["glibc", "man-pages"], arch="ia64")
    archs = {p.name: p.arch for p in tx}
    assert archs == {"glibc": "ia64", "man-pages": "noarch"}


def test_install_order_prerequisites_first():
    tx = resolve(cluster_repo(), ["hpl", "openssh"])
    order = tx.names
    assert order.index("glibc") < order.index("openssl")
    assert order.index("openssl") < order.index("openssh")
    assert order.index("binutils") < order.index("gcc")
    assert order.index("mpich") < order.index("hpl")


def test_install_order_breaks_cycles():
    a = Package("a", "1", requires=("b",))
    b = Package("b", "1", requires=("a",))
    order = install_order([a, b])
    assert [p.name for p in order] == ["a", "b"]  # deterministic break


def test_transaction_total_size():
    tx = resolve(cluster_repo(), ["openssh"])
    assert tx.total_size == sum(p.size for p in tx)


def test_transaction_installs_cleanly_in_order():
    """Whole-pipeline property: the solver's order satisfies the rpmdb."""
    tx = resolve(cluster_repo(), ["hpl", "openssh", "mpich"])
    db = RpmDatabase()
    for pkg in tx:
        db.install(pkg)  # raises if order is wrong
    assert db.verify()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_install_order_property(data):
    """For random acyclic dependency forests, order respects every edge."""
    n = data.draw(st.integers(min_value=1, max_value=12))
    pkgs = []
    for i in range(n):
        # each package may require only lower-numbered ones: acyclic
        deps = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=max(i - 1, 0)),
                max_size=3,
                unique=True,
            )
        ) if i else []
        pkgs.append(
            Package(f"p{i:02d}", "1.0", requires=tuple(f"p{j:02d}" for j in deps))
        )
    order = install_order(pkgs)
    pos = {p.name: k for k, p in enumerate(order)}
    assert len(order) == n
    for p in pkgs:
        for d in p.requires:
            assert pos[d.name] < pos[p.name]
    # and exactly the order the quadratic reference gives
    assert [id(p) for p in order] == [
        id(p) for p in quadratic.install_order(pkgs)
    ]
