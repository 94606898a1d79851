"""Tests for interactive mpirun over REXEC (§4.1)."""

import pytest

from repro import build_cluster
from repro.scheduler import MpirunError, RemoteEnvironment, Signal


@pytest.fixture(scope="module")
def sim():
    s = build_cluster(n_compute=3)
    s.integrate_all()
    return s


RENV = RemoteEnvironment("bruno", 500, 500, "/home/bruno", {"OMP_NUM_THREADS": "1"})


def pi_worker(machine, proc):
    """A toy MPI program: each rank integrates a slice of pi."""
    rank = int(proc.env.variables["MPI_RANK"])
    nprocs = int(proc.env.variables["MPI_NPROCS"])
    n = 10_000
    s = sum(
        4.0 / (1.0 + ((i + 0.5) / n) ** 2)
        for i in range(rank, n, nprocs)
    )
    proc.stdout.append(f"rank {rank}/{nprocs} partial {s / n:.6f}")
    return 0


def test_mpirun_assigns_ranks_round_robin(sim):
    session = sim.frontend.mpirun.run(6, pi_worker, RENV, program="cpi")
    assert session.ok
    assert len(session.processes) == 6
    # 6 ranks over 3 nodes: each node hosts exactly 2
    hosts = [p.host for p in session.processes]
    assert all(hosts.count(f"compute-0-{i}") == 2 for i in range(3))
    ranks = sorted(int(p.env.variables["MPI_RANK"]) for p in session.processes)
    assert ranks == list(range(6))


def test_mpirun_partials_sum_to_pi(sim):
    session = sim.frontend.mpirun.run(4, pi_worker, RENV)
    total = sum(float(line.split()[-1]) for p in session.processes
                for line in p.stdout)
    assert total == pytest.approx(3.14159, abs=1e-3)


def test_mpirun_propagates_caller_environment(sim):
    seen = []

    def env_probe(machine, proc):
        seen.append((proc.env.cwd, proc.env.variables["OMP_NUM_THREADS"]))
        return 0

    sim.frontend.mpirun.run(2, env_probe, RENV)
    assert seen == [("/home/bruno", "1")] * 2


def test_mpirun_skips_down_nodes(sim):
    sim.nodes[1].power_off()
    try:
        session = sim.frontend.mpirun.run(4, pi_worker, RENV)
        hosts = {p.host for p in session.processes}
        assert "compute-0-1" not in hosts
        assert session.ok
    finally:
        sim.nodes[1].power_on()
        sim.env.run(until=sim.nodes[1].wait_for_state(sim.nodes[1].state.UP))


def test_mpirun_machinefile_restricts_placement(sim):
    session = sim.frontend.mpirun.run(
        4, pi_worker, RENV, machinefile=["compute-0-2"]
    )
    assert {p.host for p in session.processes} == {"compute-0-2"}


def test_mpirun_no_nodes_raises(sim):
    with pytest.raises(MpirunError, match="no up nodes"):
        sim.frontend.mpirun.run(2, pi_worker, RENV, machinefile=["ghost"])


def test_mpirun_bad_np(sim):
    with pytest.raises(MpirunError, match="-np"):
        sim.frontend.mpirun.run(0, pi_worker, RENV)


def test_mpirun_signal_forwarding(sim):
    """§4.1: 'a sophisticated signal handling system which provides
    remote forwarding of signals'."""

    def spinner(machine, proc):
        proc.stdout.append("spinning")
        return None  # still running

    session = sim.frontend.mpirun.run(3, spinner, RENV)
    n = session.forward_signal(Signal.SIGINT)
    assert n == 3
    assert all(p.exit_code == 130 for p in session.processes)


def test_mpirun_program_visible_then_reaped(sim):
    """The launched binary shows in the process table during execution
    (cluster-ps would see it) and is reaped afterwards."""
    observed = []

    def worker(machine, proc):
        observed.append(list(machine.user_processes))
        return 0

    sim.frontend.mpirun.run(3, worker, RENV, program="gamess.x")
    assert all("gamess.x" in snapshot for snapshot in observed)
    for node in sim.nodes:
        assert "gamess.x" not in node.user_processes


def test_mpirun_refuses_a_timed_command(sim):
    """A rank command that yields would never run under mpirun's
    synchronous launch, so it is refused instead of reported as done."""

    def timed(machine, proc):
        yield sim.env.timeout(5.0)
        return 0

    with pytest.raises(TypeError, match=r"Rexec\.session.*ExecTask"):
        sim.frontend.mpirun.run(2, timed, RENV, program="timed.x")
    for node in sim.nodes:
        assert "timed.x" not in node.user_processes
