"""The paper's reinstall claims, each checked on its registry scenario.

Table I (§6.3): reinstall time stays flat while one 100 Mbit install
server keeps up with the nodes, then rises as the server saturates.
§6.3 names two ways to scale that server, a Gigabit NIC (the ``gigabit``
scenario) and replicated servers (``replicas``); each takes the
contention away at Table I's 32-node point.  Every check runs the
registry's point function, as its scenario does.  The bounds state the
shape of each claim; the measured minutes are in EXPERIMENTS.md.
"""

import pytest

from repro import Tracer
from repro.scenarios import (
    SCENARIOS,
    TABLE1_MINUTES,
    gigabit_nic,
    reinstall_point,
    replicated_servers,
)
from repro.telemetry import summarize

#: bytes of one compute node's packages (§6.3: ~225 MB)
PAYLOAD = 225e6


@pytest.fixture(scope="module")
def table1():
    """n -> (minutes, bytes the install server sent for the reinstall)."""
    return {n: reinstall_point(n)[1:] for n in TABLE1_MINUTES}


@pytest.mark.parametrize("n", sorted(TABLE1_MINUTES))
def test_table1_point_moves_every_payload_in_minutes(table1, n):
    took, served = table1[n]
    # §5's "5-10 minutes"; the 32-node point stretches past it, as in
    # the paper
    assert 8 <= took <= 22
    # every node moved its full payload, counted from after integration
    assert served == pytest.approx(n * PAYLOAD, rel=0.06)


def test_table1_is_flat_then_rises_sublinearly(table1):
    base = table1[1][0]
    for n in (2, 4, 8):
        assert table1[n][0] == pytest.approx(base, rel=0.10)
    # a knee past the server's ~7 concurrent full-speed installs ...
    assert table1[8][0] < table1[16][0] < table1[32][0]
    # ... but nowhere near linear: 32x the nodes in under 2.2x the time
    assert table1[32][0] < 2.2 * base


def test_traced_reinstall_carries_the_evidence():
    """Per-node packages spans, and a link that runs at least at the
    single-stream payload cap (7.5 of 12.5 MB/s) and at most full."""
    tracer = Tracer()
    SCENARIOS["reinstall"](4, tracer=tracer)
    summary = summarize(tracer)
    assert summary["phases"]["packages"]["count"] >= 4
    assert 0.59 <= max(summary["peak_link_utilization"].values()) <= 1.0


def test_gigabit_server_removes_the_contention(table1):
    _, gigabit, _ = reinstall_point(32, change_server=gigabit_nic)
    assert gigabit == pytest.approx(table1[1][0], rel=0.12)
    assert gigabit < table1[32][0]


def test_two_replicated_servers_beat_one(table1):
    _, replicas, _ = reinstall_point(32, change_server=replicated_servers)
    assert replicas < table1[32][0]
    assert replicas <= 1.35 * table1[1][0]
