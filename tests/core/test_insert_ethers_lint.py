"""Unit tests for insert-ethers details and the kickstart linter."""

import pytest

from repro import build_cluster
from repro.analysis import ConfigContext, analyze_config
from repro.core.kickstart import (
    KickstartGenerator,
    NodeFile,
    default_graph,
    default_node_files,
)
from repro.core.tools import InsertEthers
from repro.rpm import Repository, community_packages, npaci_packages, stock_redhat


# -- insert-ethers ------------------------------------------------------------


def test_insert_assigns_arch_and_cpus_from_hardware():
    sim = build_cluster(n_compute=0)
    m = sim.hardware.add_machine("ia64-800-raid")
    sim.frontend.adopt(m)
    with InsertEthers(sim.frontend) as ie:
        row = ie.insert(m.mac)
    assert row.arch == "ia64"
    assert row.cpus == 2
    assert sim.hardware.by_name("compute-0-0") is m


def test_insert_unknown_hardware_still_recorded():
    """A MAC with no simulated machine (e.g. a managed switch) gets
    database defaults."""
    sim = build_cluster(n_compute=0)
    with InsertEthers(sim.frontend, membership="Ethernet Switches") as ie:
        row = ie.insert("00:01:e7:1a:be:00")
    assert row.name == "network-0-0"
    assert row.arch == "i386"


def test_insert_callback_fires():
    sim = build_cluster(n_compute=0)
    m = sim.hardware.add_machine("pIII-733-myri")
    sim.frontend.adopt(m)
    events = []
    ie = InsertEthers(
        sim.frontend, on_insert=lambda row, machine: events.append((row.name, machine))
    ).start()
    ie.insert(m.mac)
    ie.stop()
    assert events == [("compute-0-0", m)]


def test_two_cabinets_name_independently():
    sim = build_cluster(n_compute=0)
    cab1 = sim.hardware.add_cabinet()
    ms0 = [sim.hardware.add_machine("pIII-733-myri") for _ in range(2)]
    ms1 = [sim.hardware.add_machine("pIII-733-myri", cabinet=cab1) for _ in range(2)]
    ie0 = InsertEthers(sim.frontend, cabinet=0).start()
    for m in ms0:
        ie0.insert(m.mac)
    ie0.stop()
    ie1 = InsertEthers(sim.frontend, cabinet=1).start()
    for m in ms1:
        ie1.insert(m.mac)
    ie1.stop()
    names = [n.name for n in sim.db.compute_nodes()]
    assert names == ["compute-0-0", "compute-0-1", "compute-1-0", "compute-1-1"]


def test_stopped_insert_ethers_ignores_discoveries():
    sim = build_cluster(n_compute=1)
    node = sim.nodes[0]
    # nobody is running insert-ethers: the node retries DHCP forever
    node.power_on()
    sim.env.run(until=sim.env.now + 200)
    assert not sim.db.has_mac(node.mac)
    # the admin starts the tool; the next DISCOVER integrates the node
    sim.insert_ethers = InsertEthers(sim.frontend).start()
    sim.env.run(until=node.wait_for_state(node.state.UP))
    assert sim.db.has_mac(node.mac)


# -- lint ------------------------------------------------------------------------


def make_gen(extra_edges=(), extra_files=(), drop_files=()):
    repo = Repository("rocks-dist")
    for src in (stock_redhat(), community_packages(), npaci_packages()):
        repo.add_all(src)
    graph = default_graph()
    for frm, to in extra_edges:
        graph.add_edge(frm, to)
    files = default_node_files()
    for nf in extra_files:
        files[nf.name] = nf
    for name in drop_files:
        del files[name]
    return KickstartGenerator(graph, files, lambda d: repo)


def lint(gen, dist_name="rocks-dist", arches=("i386",)):
    """Lint the generator's XML the way ``repro lint`` does."""
    return analyze_config(ConfigContext(
        graph=gen.graph,
        node_files=gen.node_files,
        dist_name=dist_name,
        dist_resolver=gen.dist_resolver,
        arches=tuple(arches),
    ))


def problems(gen, dist_name="rocks-dist", arches=("i386",)):
    return [(d.code, d.message) for d in lint(gen, dist_name, arches)]


def test_lint_clean_default_set():
    assert problems(make_gen()) == []


def test_lint_missing_node_file():
    gen = make_gen(extra_edges=[("compute", "ghost")])
    assert problems(gen) == [
        ("RK101", "graph references undefined node file 'ghost'")
    ]


def test_lint_orphan_node_file():
    orphan = NodeFile.from_xml(
        "orphan", "<kickstart><package>wget</package></kickstart>"
    )
    gen = make_gen(extra_files=[orphan])
    assert problems(gen) == [
        ("RK102", "node file 'orphan' is not reachable from any appliance")
    ]


def test_lint_unresolvable_package():
    bad = NodeFile.from_xml(
        "site-bad", "<kickstart><package>flux-capacitor</package></kickstart>"
    )
    gen = make_gen(extra_edges=[("compute", "site-bad")], extra_files=[bad])
    assert problems(gen) == [
        ("RK106", "compute/i386: package 'flux-capacitor' not in rocks-dist")
    ]


def test_lint_multi_arch():
    repo = Repository("rocks-dist")
    for arch in ("i386", "ia64"):
        repo.add_all(stock_redhat(arch=arch))
        repo.add_all(community_packages(arch))
    repo.add_all(npaci_packages())
    gen = KickstartGenerator(default_graph(), default_node_files(), lambda d: repo)
    assert problems(gen, arches=("i386", "ia64")) == []


def test_lint_unknown_distribution():
    gen = make_gen()
    gen.dist_resolver = lambda d: (_ for _ in ()).throw(KeyError(f"no dist {d}"))
    assert problems(gen, "nonesuch") == [("RK110", "'no dist nonesuch'")]


# -- arch-conditional lint ------------------------------------------------------


def make_multiarch_gen(extra_edges=(), extra_files=(), i386_only=()):
    """A generator whose repo carries i386+ia64, plus i386-only extras."""
    from repro.rpm import Package

    repo = Repository("rocks-dist")
    for arch in ("i386", "ia64"):
        repo.add_all(stock_redhat(arch=arch))
        repo.add_all(community_packages(arch))
    repo.add_all(npaci_packages())
    for name in i386_only:
        repo.add(Package(name, "1.0", arch="i386"))
    graph = default_graph()
    for frm, to in extra_edges:
        graph.add_edge(frm, to)
    files = default_node_files()
    for nf in extra_files:
        files[nf.name] = nf
    return KickstartGenerator(graph, files, lambda d: repo)


def test_lint_clean_for_i386_but_broken_for_ia64_is_arch_tagged():
    """A package that only exists as i386 lints clean for i386 and
    produces arch-tagged RK106 diagnostics for ia64."""
    nf = NodeFile.from_xml(
        "site-x86tool", "<kickstart><package>x86tool</package></kickstart>"
    )
    gen = make_multiarch_gen(
        extra_edges=[("compute", "site-x86tool")],
        extra_files=[nf],
        i386_only=["x86tool"],
    )
    assert problems(gen, arches=("i386",)) == []
    assert problems(gen, arches=("ia64",)) == [
        ("RK106", "compute/ia64: package 'x86tool' not in rocks-dist")
    ]

    diags = lint(gen, arches=("ia64",))
    rk106 = [d for d in diags if d.code == "RK106"]
    assert rk106
    assert all(d.arch == "ia64" for d in rk106)
    assert any(d.data.get("package") == "x86tool" for d in rk106)


def test_lint_multi_arch_reports_only_broken_arch():
    nf = NodeFile.from_xml(
        "site-x86tool", "<kickstart><package>x86tool</package></kickstart>"
    )
    gen = make_multiarch_gen(
        extra_edges=[("compute", "site-x86tool")],
        extra_files=[nf],
        i386_only=["x86tool"],
    )
    diags = lint(gen, arches=("i386", "ia64"))
    arch_tags = {d.arch for d in diags if d.code == "RK106"}
    assert arch_tags == {"ia64"}


def test_cli_lint_arch_ia64_default_set_clean(capsys):
    """`repro lint --arch ia64` — the CLI path of the satellite check."""
    from repro.cli import main

    assert main(["lint", "--arch", "ia64"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out
