"""Tests for PBS, Maui scheduling/drain, and REXEC."""

import pytest

from repro.cluster import ClusterHardware, MachineState, Partition
from repro.netsim import Environment
from repro.rpm import Package
from repro.scheduler import (
    JobState,
    MauiScheduler,
    NodeState,
    PbsError,
    PbsServer,
    RemoteEnvironment,
    RemoteProcess,
    Rexec,
)


@pytest.fixture
def pbs():
    env = Environment()
    server = PbsServer(env)
    for i in range(4):
        server.register_node(f"compute-0-{i}")
    return env, server


# -- PBS ----------------------------------------------------------------------


def test_qsub_queues_job(pbs):
    _, server = pbs
    job = server.qsub("bruno", "gamess", nodes=2, walltime=3600)
    assert job.state is JobState.QUEUED
    assert job.jid == "1.frontend-0"
    assert server.queued_jobs() == [job]


def test_qsub_validation(pbs):
    _, server = pbs
    with pytest.raises(PbsError):
        server.qsub("u", "j", nodes=0, walltime=10)
    with pytest.raises(PbsError):
        server.qsub("u", "j", nodes=1, walltime=0)
    with pytest.raises(PbsError):
        server.qsub("u", "j", nodes=1, walltime=10, queue="ghost")


def test_start_job_marks_nodes_exclusive(pbs):
    env, server = pbs
    job = server.qsub("bruno", "amber", nodes=2, walltime=100)
    server.start_job(job, ["compute-0-0", "compute-0-1"])
    assert job.state is JobState.RUNNING
    assert server.node_state("compute-0-0") is NodeState.JOB_EXCLUSIVE
    env.run(until=job.done)
    assert job.state is JobState.COMPLETE
    assert job.finished_at - job.started_at == pytest.approx(100)
    assert server.node_state("compute-0-0") is NodeState.FREE


def test_start_job_validates_node_count_and_state(pbs):
    _, server = pbs
    job = server.qsub("u", "j", nodes=2, walltime=10)
    with pytest.raises(PbsError, match="wants 2 nodes"):
        server.start_job(job, ["compute-0-0"])
    server.set_node_state("compute-0-1", NodeState.DOWN)
    with pytest.raises(PbsError, match="not free"):
        server.start_job(job, ["compute-0-0", "compute-0-1"])


def test_qdel_running_job_frees_nodes(pbs):
    env, server = pbs
    job = server.qsub("u", "runaway", nodes=1, walltime=1e9)
    server.start_job(job, ["compute-0-0"])
    server.qdel(job.job_id)
    assert job.state is JobState.CANCELLED
    assert server.node_state("compute-0-0") is NodeState.FREE


def test_qdel_queued_job(pbs):
    _, server = pbs
    job = server.qsub("u", "j", nodes=1, walltime=10)
    server.qdel(job.job_id)
    assert job.state is JobState.CANCELLED
    assert server.queued_jobs() == []


def test_nodes_file_format(pbs):
    _, server = pbs
    assert server.nodes_file().splitlines()[0] == "compute-0-0 np=1"


def test_duplicate_node_registration(pbs):
    _, server = pbs
    with pytest.raises(PbsError):
        server.register_node("compute-0-0")


# -- Maui -----------------------------------------------------------------------


def test_maui_dispatches_fifo(pbs):
    env, server = pbs
    maui = MauiScheduler(env, server)
    a = server.qsub("u", "a", nodes=2, walltime=50)
    b = server.qsub("u", "b", nodes=2, walltime=50)
    maui.schedule_once()
    assert a.state is JobState.RUNNING
    assert b.state is JobState.RUNNING
    assert set(a.assigned_nodes).isdisjoint(b.assigned_nodes)


def test_maui_priority_order(pbs):
    env, server = pbs
    maui = MauiScheduler(env, server)
    low = server.qsub("u", "low", nodes=4, walltime=50, priority=0)
    high = server.qsub("u", "high", nodes=4, walltime=50, priority=10)
    maui.schedule_once()
    assert high.state is JobState.RUNNING
    assert low.state is JobState.QUEUED


def test_maui_periodic_loop_runs_backlog(pbs):
    env, server = pbs
    maui = MauiScheduler(env, server)
    maui.start()
    jobs = [server.qsub("u", f"j{i}", nodes=4, walltime=100) for i in range(3)]
    env.run(until=400)
    maui.stop()
    assert all(j.state is JobState.COMPLETE for j in jobs)
    # strictly sequential: each started after the previous finished
    assert jobs[1].started_at >= jobs[0].finished_at
    assert jobs[2].started_at >= jobs[1].finished_at


def test_system_job_drains_without_killing(pbs):
    """§5: the reinstall job waits for running work, and free nodes are
    held for it rather than backfilled."""
    env, server = pbs
    maui = MauiScheduler(env, server)
    running = server.qsub("u", "app", nodes=2, walltime=200)
    maui.schedule_once()
    assert running.state is JobState.RUNNING

    reinstall = server.qsub("root", "reinstall-cluster", nodes=4, walltime=600,
                            priority=100, system=True)
    latecomer = server.qsub("u", "late", nodes=1, walltime=50)
    maui.schedule_once()
    # two nodes are free, but they are reserved for the system job:
    assert reinstall.state is JobState.QUEUED
    assert latecomer.state is JobState.QUEUED
    assert running.state is JobState.RUNNING  # never disturbed

    maui.start()
    env.run(until=reinstall.done)
    assert reinstall.started_at >= running.finished_at
    env.run(until=latecomer.done)
    assert latecomer.started_at >= reinstall.finished_at


# -- REXEC ------------------------------------------------------------------------


def up_cluster(n=3):
    env = Environment()
    cluster = ClusterHardware(env, seed=5)
    machines = []
    for i in range(n):
        m = cluster.add_machine("pIII-733-myri", name=f"compute-0-{i}")
        m.rpmdb.install(Package("glibc", "2.2.4"))
        m.partitions["/"] = Partition("/", 4096, is_root=True)
        m.power_on()
        machines.append(m)
    for m in machines:
        env.run(until=m.wait_for_state(MachineState.UP))
    return env, cluster, machines


def run_session(env, rexec, host, command, renv):
    """One REXEC session on ``host``, in a process of its own."""
    proc = RemoteProcess(host=host, rank=0, env=renv)
    return env.run(until=env.process(rexec.session(host, command, proc)))


def test_rexec_runs_on_all_nodes():
    env, cluster, machines = up_cluster()
    rexec = Rexec(env, cluster.find)
    renv = RemoteEnvironment("bruno", 500, 500, "/home/bruno", {"PATH": "/bin"})

    def command(machine, proc):
        proc.stdout.append(f"hello from {machine.hostid} cwd={proc.env.cwd}")
        return 0

    procs = [run_session(env, rexec, m.hostid, command, renv) for m in machines]
    assert [p.exit_code for p in procs] == [0, 0, 0]
    assert procs[1].stdout == ["hello from compute-0-1 cwd=/home/bruno"]


def test_rexec_propagates_environment():
    env, cluster, machines = up_cluster(1)
    rexec = Rexec(env, cluster.find)
    renv = RemoteEnvironment("amy", 501, 501, "/home/amy", {"OMP_NUM_THREADS": "2"})
    seen = {}

    def command(machine, proc):
        seen.update(proc.env.variables)
        seen["uid"] = proc.env.uid
        return 0

    run_session(env, rexec, "compute-0-0", command, renv)
    assert seen == {"OMP_NUM_THREADS": "2", "uid": 501}


def test_rexec_reports_unreachable_down_nodes():
    env, cluster, machines = up_cluster()
    machines[1].power_off()
    rexec = Rexec(env, cluster.find)
    renv = RemoteEnvironment("u", 1, 1, "/")
    ran = []

    def command(machine, proc):
        ran.append(machine.hostid)
        return 0

    procs = [
        run_session(env, rexec, host, command, renv)
        for host in ("compute-0-0", "compute-0-1", "ghost-node")
    ]
    assert [(p.node_dead, p.error) for p in procs] == [
        (False, None), (True, "host is off"), (True, "unknown host"),
    ]
    assert ran == ["compute-0-0"]


def test_rexec_command_exception_becomes_stderr():
    env, cluster, machines = up_cluster(1)
    rexec = Rexec(env, cluster.find)

    def bad(machine, proc):
        raise RuntimeError("segfault")

    proc = run_session(env, rexec, "compute-0-0", bad,
                       RemoteEnvironment("u", 1, 1, "/"))
    assert proc.exit_code == 1
    assert proc.stderr == ["segfault"]
