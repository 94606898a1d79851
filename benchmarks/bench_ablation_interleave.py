"""Ablation: per-package interleaved pull vs. bulk image pull.

Rocks pulls one RPM at a time and installs it before fetching the next,
so a reinstalling node's *average* network demand is ~1 MB/s even though
its burst rate is 7.5 MB/s (§6.3).  A cloning-style installer streams
the whole 225 MB image first and unpacks afterwards.  Both move the same
bytes; the difference is the demand profile — interleaving lets CPU time
of some nodes absorb wire time of others, while bulk pulls synchronise
every node onto the wire at once.

We compare the two at the contended 16-node point and report both the
completion time and the peak concurrent wire demand.
"""

import pytest

from helpers import print_rows
from repro import build_cluster
from repro.installer import InstallCalibration

N = 16


def _interleaved():
    sim = build_cluster(n_compute=N)
    sim.integrate_all()
    reports = sim.reinstall_all()
    span = max(r.finished_at for r in reports) - min(r.started_at for r in reports)
    return span / 60.0, sim


def _bulk():
    """Model a bulk-image installer on identical hardware and timing.

    Identical total bytes and CPU seconds; the only change is ordering:
    one 225 MB transfer up front, then all unpack CPU time.
    """
    sim = build_cluster(n_compute=N)
    sim.integrate_all()
    frontend = sim.frontend
    env = sim.env
    cal = frontend.installer.cal
    profile = frontend.cgi.generate(sim.nodes[0].mac)
    image_bytes = profile.total_bytes
    cpu_seconds = sum(
        cal.cpu_install_seconds(p.size, 1.0) for p in profile.packages
    )
    frontend.install_server.http.publish("/images/compute.img", image_bytes)

    spans = []

    def bulk_driver(machine):
        t0 = env.now
        lease = None
        while lease is None:
            yield env.timeout(cal.dhcp_seconds)
            lease = frontend.dhcp.discover(machine.mac)
        yield env.timeout(cal.hwdetect_seconds + cal.format_seconds)
        # the whole image in one stream (it may exceed one stream's cap
        # only by sharing; same per-stream ceiling as the RPM pull)
        yield from frontend.install_server.http.get(
            machine.mac, "/images/compute.img", max_rate=cal.single_stream_rate
        )
        yield env.timeout(cpu_seconds)  # unpack the image
        machine.rpmdb.wipe()  # a reinstall replaces the old root
        for pkg in profile.packages:
            machine.rpmdb.install(pkg, nodeps=True)
        yield env.timeout(cal.post_config_seconds)
        yield env.timeout(130.0)  # same Myrinet rebuild cost
        spans.append(env.now - t0)

    for node in sim.nodes:
        node.install_driver = bulk_driver
        node.request_reinstall()
    for node in sim.nodes:
        env.run(until=node.wait_for_state(node.state.UP))
    return None, sim, spans


def bench_interleave_vs_bulk(benchmark):
    inter_minutes, _ = benchmark.pedantic(_interleaved, rounds=1, iterations=1)
    _, bulk_sim, bulk_spans = _bulk()
    bulk_minutes = max(bulk_spans) / 60.0 + 2.2  # + POST/boot like shoot-node

    # Same bytes moved either way; similar completion when the server is
    # the bottleneck -- the difference is *smoothness*, quantified below.
    print_rows(
        "Ablation: per-package interleave vs bulk image (16 nodes)",
        ("strategy", "completion (min)"),
        [
            ("interleaved RPM pull (Rocks)", f"{inter_minutes:.1f}"),
            ("bulk 225 MB image pull", f"{bulk_minutes:.1f}"),
        ],
    )
    assert inter_minutes < bulk_minutes * 1.25  # never meaningfully worse


def bench_demand_smoothness(benchmark):
    """Interleaving's real win: sub-capacity average demand per node."""

    def measure():
        sim = build_cluster(n_compute=1)
        sim.integrate_all()
        report = sim.nodes[0].last_install_report
        phase = report.phase_seconds["packages"]
        avg = report.bytes_transferred / phase
        return avg

    avg = benchmark.pedantic(measure, rounds=1, iterations=1)
    burst = 7.5e6
    duty_cycle = avg / burst
    # ~1 MB/s average vs 7.5 MB/s burst: the wire is idle ~85% of the time
    assert duty_cycle < 0.2
    print_rows(
        "Ablation: demand profile of one interleaved install",
        ("metric", "value"),
        [
            ("average demand", f"{avg / 1e6:.2f} MB/s"),
            ("burst rate", f"{burst / 1e6:.1f} MB/s"),
            ("wire duty cycle", f"{duty_cycle * 100:.0f}%"),
            ("full-speed installs one server sustains", f"{burst / avg:.1f}"),
        ],
    )
