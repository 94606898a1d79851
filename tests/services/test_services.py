"""Tests for syslog, DHCP, NIS, NFS, and the install HTTP server."""

import pytest

from repro.netsim import Environment, FAST_ETHERNET, HttpError, Network
from repro.rpm import Package, Repository
from repro.services import (
    DhcpBinding,
    DhcpServer,
    InstallServer,
    NfsServer,
    NisClient,
    NisDomain,
    Service,
    ServiceError,
    ServiceState,
    StaleFileHandle,
    Syslog,
    UserAccount,
)


# -- base Service ------------------------------------------------------------


def test_service_lifecycle():
    s = Service("x")
    assert not s.running
    s.start()
    assert s.running
    s.restart()
    assert s.restarts == 1
    s.stop()
    assert s.state is ServiceState.STOPPED


def test_service_fail_and_repair():
    s = Service("x")
    s.start()
    s.fail()
    assert s.state is ServiceState.FAILED
    with pytest.raises(ServiceError):
        s.require_running()
    s.repair()
    assert s.running


def test_service_configure_bumps_generation():
    s = Service("x")
    s.configure("a=1")
    s.configure("a=2")
    assert s.config_generation == 2
    assert s.config_text == "a=2"


# -- syslog ---------------------------------------------------------------------


def test_syslog_records_and_fans_out():
    env = Environment()
    log = Syslog(env)
    seen = []
    log.subscribe(lambda m: seen.append(m.text), facility="dhcpd")
    log.log("dhcpd", "frontend-0", "DHCPDISCOVER from aa:bb")
    log.log("kernel", "frontend-0", "eth0 up")
    assert seen == ["DHCPDISCOVER from aa:bb"]
    assert len(log.messages) == 2


def test_syslog_unsubscribe():
    env = Environment()
    log = Syslog(env)
    seen = []
    unsub = log.subscribe(lambda m: seen.append(m.text))
    log.log("x", "h", "one")
    unsub()
    log.log("x", "h", "two")
    assert seen == ["one"]


def test_syslog_grep():
    env = Environment()
    log = Syslog(env)
    log.log("dhcpd", "h", "DHCPDISCOVER from aa")
    log.log("dhcpd", "h", "DHCPACK on 10.1.1.1")
    assert len(log.grep("DHCPDISCOVER")) == 1
    assert len(log.grep("DHCP", facility="dhcpd")) == 2


def test_syslog_stopped_drops_messages():
    env = Environment()
    log = Syslog(env)
    log.stop()
    log.log("x", "h", "lost")
    assert log.messages == []


# -- DHCP ------------------------------------------------------------------------


@pytest.fixture
def dhcp():
    env = Environment()
    log = Syslog(env)
    server = DhcpServer(env, log, "frontend-0")
    server.start()
    return env, log, server


def test_dhcp_known_mac_gets_lease(dhcp):
    _, _, server = dhcp
    server.load_bindings(
        [DhcpBinding("aa:bb:cc:00:00:01", "10.255.255.254", "compute-0-0")]
    )
    lease = server.discover("aa:bb:cc:00:00:01")
    assert lease.ip == "10.255.255.254"
    assert lease.hostname == "compute-0-0"
    assert lease.next_server == "frontend-0"


def test_dhcp_unknown_mac_logged_for_insert_ethers(dhcp):
    _, log, server = dhcp
    assert server.discover("de:ad:be:ef:00:01") is None
    assert server.unknown_macs_seen == ["de:ad:be:ef:00:01"]
    assert log.grep("DHCPDISCOVER from de:ad:be:ef:00:01")


def test_dhcp_stopped_raises(dhcp):
    _, _, server = dhcp
    server.stop()
    with pytest.raises(ServiceError):
        server.discover("aa:bb:cc:00:00:01")


def test_dhcp_rebinding_replaces_table(dhcp):
    _, _, server = dhcp
    server.load_bindings([DhcpBinding("m1", "10.0.0.1", "a")])
    server.load_bindings([DhcpBinding("m2", "10.0.0.2", "b")], config_text="v2")
    assert server.binding_for("m1") is None
    assert server.binding_for("m2").hostname == "b"
    assert server.config_generation == 1


# -- NIS ---------------------------------------------------------------------------


def test_nis_sync_is_immediate():
    domain = NisDomain("rocks")
    domain.start()
    client = NisClient("compute-0-0", domain)
    client.start()
    domain.add_user(UserAccount("bruno", 500, "/home/bruno"))
    assert client.getpwnam("bruno").uid == 500
    domain.remove_user("bruno")
    with pytest.raises(KeyError):
        client.getpwnam("bruno")


def test_nis_duplicate_user_and_uid_rejected():
    domain = NisDomain("rocks")
    domain.add_user(UserAccount("a", 500, "/home/a"))
    with pytest.raises(ValueError, match="already exists"):
        domain.add_user(UserAccount("a", 501, "/home/a"))
    with pytest.raises(ValueError, match="uid"):
        domain.add_user(UserAccount("b", 500, "/home/b"))


def test_nis_passwd_map_sorted():
    domain = NisDomain("rocks")
    domain.start()
    domain.add_user(UserAccount("zoe", 502, "/home/zoe"))
    domain.add_user(UserAccount("amy", 501, "/home/amy"))
    lines = domain.passwd_map().splitlines()
    assert lines[0].startswith("amy:")
    assert lines[1].startswith("zoe:")


def test_nis_down_domain_fails_lookup():
    domain = NisDomain("rocks")
    domain.add_user(UserAccount("a", 500, "/home/a"))
    client = NisClient("c0", domain)
    client.start()
    with pytest.raises(ServiceError):
        client.getpwnam("a")


# -- NFS ------------------------------------------------------------------------------


def test_nfs_mount_read_write():
    nfs = NfsServer("frontend-0")
    nfs.start()
    nfs.export("/home")
    m = nfs.mount("compute-0-0", "/home", "/home")
    m.write("results.dat", b"42")
    assert m.read("results.dat") == b"42"
    assert m.listdir() == ["results.dat"]


def test_nfs_shared_across_clients():
    nfs = NfsServer("frontend-0")
    nfs.start()
    nfs.export("/home")
    a = nfs.mount("compute-0-0", "/home", "/home")
    b = nfs.mount("compute-0-1", "/home", "/home")
    a.write("x", b"1")
    assert b.read("x") == b"1"


def test_nfs_common_mode_failure_hits_all_clients():
    nfs = NfsServer("frontend-0")
    nfs.start()
    nfs.export("/home")
    mounts = [nfs.mount(f"compute-0-{i}", "/home", "/home") for i in range(4)]
    mounts[0].write("x", b"1")
    nfs.fail()
    assert sorted(nfs.affected_by_failure()) == [f"compute-0-{i}" for i in range(4)]
    for m in mounts:
        with pytest.raises(StaleFileHandle):
            m.read("x")
    nfs.repair()
    assert mounts[3].read("x") == b"1"
    assert nfs.affected_by_failure() == []


def test_nfs_unknown_export_and_double_export():
    nfs = NfsServer("f")
    nfs.start()
    nfs.export("/home")
    with pytest.raises(ValueError):
        nfs.export("/home")
    with pytest.raises(ServiceError):
        nfs.mount("c", "/scratch", "/scratch")


def test_nfs_missing_file():
    nfs = NfsServer("f")
    nfs.start()
    nfs.export("/home")
    m = nfs.mount("c", "/home", "/home")
    with pytest.raises(FileNotFoundError):
        m.read("ghost")


def test_nfs_umount_blocks_io():
    nfs = NfsServer("f")
    nfs.start()
    nfs.export("/home")
    m = nfs.mount("c", "/home", "/home")
    m.umount()
    with pytest.raises(ServiceError):
        m.read("x")
    assert nfs.mounted_clients() == []


def test_nfs_etab_format():
    nfs = NfsServer("f")
    nfs.export("/home")
    nfs.export("/export/apps")
    assert nfs.etab().splitlines() == [
        "/export/apps *(rw,no_root_squash)",
        "/home *(rw,no_root_squash)",
    ]


# -- install server --------------------------------------------------------------------


def make_install_server():
    env = Environment()
    net = Network(env)
    net.attach("frontend", FAST_ETHERNET)
    net.attach("node", FAST_ETHERNET)
    server = InstallServer(env, net, "frontend")
    return env, net, server


def test_publish_and_fetch_package():
    env, _, server = make_install_server()
    pkg = Package("glibc", "2.2.4", "13", size=1_000_000)
    n = server.publish_packages("rocks-dist", [pkg])
    assert n == 1
    assert server.distributions() == ["rocks-dist"]
    resp = env.run(
        until=env.process(server.fetch_package("node", "rocks-dist", pkg))
    )
    assert resp.status == 200
    assert resp.size == 1_000_000
    assert server.http.bytes_served == 1_000_000


def test_publish_repository():
    env, _, server = make_install_server()
    repo = Repository("r")
    repo.add(Package("a", "1", size=10))
    repo.add(Package("b", "1", size=20))
    assert server.publish_packages("d", repo) == 2
    assert set(server.package_index("d")) == {"a-1-1.i386.rpm", "b-1-1.i386.rpm"}


def test_unpublish_distribution():
    env, _, server = make_install_server()
    pkg = Package("a", "1", size=10)
    server.publish_packages("d", [pkg])
    server.unpublish_distribution("d")
    assert server.distributions() == []

    def go():
        with pytest.raises(HttpError, match="404"):
            yield from server.fetch_package("node", "d", pkg)
        return True

    assert env.run(until=env.process(go()))


def test_kickstart_cgi_roundtrip():
    env, _, server = make_install_server()
    server.register_kickstart_cgi(lambda client, path: (f"ks for {client}", 2048))
    resp = env.run(until=env.process(server.fetch_kickstart("node")))
    assert resp.body == "ks for node"


def test_failed_server_refuses():
    env, _, server = make_install_server()
    pkg = Package("a", "1", size=10)
    server.publish_packages("d", [pkg])
    server.fail()

    def go():
        with pytest.raises(HttpError, match="503"):
            yield from server.fetch_package("node", "d", pkg)
        return True

    assert env.run(until=env.process(go()))
    server.repair()
    resp = env.run(until=env.process(server.fetch_package("node", "d", pkg)))
    assert resp.status == 200
