"""Tests for interactive mpirun over REXEC (§4.1)."""

import pytest

from repro import build_cluster
from repro.exec import ExecState
from repro.scheduler import MpirunError, RemoteEnvironment


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
    report = sim.frontend.mpirun.run(6, pi_worker, RENV, program="cpi")
    assert report.ok
    # 6 ranks over 3 nodes: each node hosts exactly 2, run in rank order
    ranks = {
        host: [line.split()[1] for line in result.stdout]
        for host, result in report.results.items()
    }
    assert ranks == {
        "compute-0-0": ["0/6", "3/6"],
        "compute-0-1": ["1/6", "4/6"],
        "compute-0-2": ["2/6", "5/6"],
    }


def test_mpirun_host_exit_code_is_its_first_failing_rank(sim):
    def exit_rank(machine, proc):
        proc.stderr.append(f"rank {proc.rank}")
        return proc.rank

    report = sim.frontend.mpirun.run(6, exit_rank, RENV)
    outcome = {h: (r.exit_code, r.stderr) for h, r in report.results.items()}
    assert outcome == {
        "compute-0-0": (3, ["rank 0", "rank 3"]),
        "compute-0-1": (1, ["rank 1", "rank 4"]),
        "compute-0-2": (2, ["rank 2", "rank 5"]),
    }
    assert report.count(ExecState.RETRIES_EXHAUSTED) == 3


def test_mpirun_partials_sum_to_pi(sim):
    report = sim.frontend.mpirun.run(4, pi_worker, RENV)
    total = sum(float(line.split()[-1]) for r in report.results.values()
                for line in r.stdout)
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
        report = sim.frontend.mpirun.run(4, pi_worker, RENV)
        assert report.targets == ["compute-0-0", "compute-0-2"]
        assert report.ok
    finally:
        sim.nodes[1].power_on()
        sim.env.run(until=sim.nodes[1].wait_for_state(sim.nodes[1].state.UP))


def test_mpirun_machinefile_restricts_placement(sim):
    report = sim.frontend.mpirun.run(
        4, pi_worker, RENV, machinefile=["compute-0-2"]
    )
    assert list(report.results) == ["compute-0-2"]
    assert len(report.results["compute-0-2"].stdout) == 4


def test_mpirun_no_nodes_raises(sim):
    with pytest.raises(MpirunError, match="no up nodes"):
        sim.frontend.mpirun.run(2, pi_worker, RENV, machinefile=["ghost"])


def test_mpirun_bad_np(sim):
    with pytest.raises(MpirunError, match="-np"):
        sim.frontend.mpirun.run(0, pi_worker, RENV)


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


def test_mpirun_runs_a_timed_command(sim):
    """Ranks that wait run on the frontend's clock, and the program is
    reaped when they end."""

    def timed(machine, proc):
        yield sim.env.timeout(5.0)
        return 0

    start = sim.env.now
    report = sim.frontend.mpirun.run(2, timed, RENV, program="timed.x")
    assert report.count(ExecState.OK) == 2
    assert sim.env.now == start + 5.0
    for node in sim.nodes:
        assert "timed.x" not in node.user_processes
