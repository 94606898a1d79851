"""ExecTask engine: classification, fanout, retries, dead nodes, determinism."""

import os
import subprocess
import sys

import pytest

from repro.cluster import Machine, MachineState, PowerState
from repro.cluster.hardware import CATALOG, MacAllocator
from repro.exec import (
    ExecLab,
    ExecOptions,
    ExecState,
    ExecTask,
    LabOptions,
)
from repro.exec.task import BACKOFF, JITTER
from repro.netsim import Environment
from repro.scheduler.rexec import RemoteEnvironment, Rexec

ROOT = RemoteEnvironment(user="root", uid=0, gid=0, cwd="/root")


def small_cluster(env, n=4):
    """n machines named node0..node{n-1}, forced UP (no boot path)."""
    macs = MacAllocator()
    machines = {}
    for i in range(n):
        m = Machine(env, CATALOG["pIII-733-myri"], macs.allocate(),
                    name=f"node{i}")
        m.power = PowerState.ON
        m.state = MachineState.UP
        machines[m.name] = m
    return machines


def run_task(env, machines, command, targets=None, environment=ROOT,
             **opts):
    rexec = Rexec(env, machines.__getitem__)
    task = ExecTask(env, rexec, ExecOptions(**opts), environment)
    driver = task.run(targets or sorted(machines), command)
    env.run(until=driver)
    return driver.value


@pytest.mark.parametrize("field, value", [
    ("fanout", 0),
    ("fanout", -1),
    ("command_timeout", 0.0),
    ("command_timeout", -5.0),
    ("command_timeout", float("nan")),
    ("max_retries", -1),
    # 0 would hold the monitor's timer at one instant forever; a
    # negative interval would fail the monitor with nothing waiting on it
    ("straggler_interval", 0.0),
    ("straggler_interval", -1.0),
    ("straggler_interval", float("nan")),
    ("straggler_factor", float("nan")),
])
def test_options_reject_invalid_values(field, value):
    with pytest.raises(ValueError, match=field):
        ExecOptions(**{field: value})


class TestClassification:
    def test_all_ok(self):
        env = Environment()
        machines = small_cluster(env)
        amy = RemoteEnvironment("amy", 501, 501, "/home/amy",
                                {"OMP_NUM_THREADS": "2"})

        def command(machine, proc):
            threads = proc.env.variables["OMP_NUM_THREADS"]
            proc.stdout.append(f"hello {proc.env.user} in {proc.env.cwd}, "
                               f"{threads} threads")
            return 0

        report = run_task(env, machines, command, environment=amy, fanout=2)
        assert report.ok
        assert report.count(ExecState.OK) == 4
        assert all(r.attempts == 1 for r in report.results.values())
        # the task's RemoteEnvironment reaches every command
        assert all(r.stdout == ["hello amy in /home/amy, 2 threads"]
                   for r in report.results.values())

    def test_nonzero_exit_exhausts_retries(self):
        env = Environment()
        machines = small_cluster(env, n=2)

        def failing(machine, proc):
            # a command that raises: its message is stderr, its exit is 1
            if machine.hostid == "node1":
                raise RuntimeError("segfault")
            return 1

        report = run_task(env, machines, failing, max_retries=2)
        assert report.count(ExecState.RETRIES_EXHAUSTED) == 2
        assert all(r.attempts == 3 and r.exit_code == 1
                   for r in report.results.values())
        assert report.results["node1"].stderr == ["segfault"]

    def test_retry_recovers_flaky_node(self):
        env = Environment()
        machines = small_cluster(env, n=1)
        calls = []

        def flaky(machine, proc):
            calls.append(env.now)
            return 1 if len(calls) == 1 else 0

        report = run_task(env, machines, flaky, max_retries=2)
        result = report.results["node0"]
        assert result.state is ExecState.OK and result.attempts == 2
        # the retry waited out a backoff delay
        assert calls[1] > calls[0]

    def test_timeout_classified_after_final_attempt(self):
        env = Environment()
        machines = small_cluster(env, n=1)

        def forever(machine, proc):
            yield machine.env.timeout(10_000.0)
            return 0

        report = run_task(env, machines, forever,
                          command_timeout=10.0, max_retries=1)
        result = report.results["node0"]
        assert result.state is ExecState.TIMEOUT
        assert result.attempts == 2

    def test_down_node_is_prompt_node_dead(self):
        env = Environment()
        machines = small_cluster(env, n=3)
        machines["node1"].power_off()
        report = run_task(env, machines, lambda m, p: 0)
        assert report.results["node1"].state is ExecState.NODE_DEAD
        assert "off" in report.results["node1"].error
        assert report.count(ExecState.OK) == 2

    def test_unknown_host_is_node_dead(self):
        env = Environment()
        machines = small_cluster(env, n=1)
        report = run_task(env, machines, lambda m, p: 0,
                          targets=["node0", "node9"])
        assert report.results["node9"].state is ExecState.NODE_DEAD
        assert report.results["node9"].error == "unknown host"


class TestDeadWatchRegression:
    """A host powering off mid-command must resolve promptly, not hang."""

    def _long_command(self, machine, proc):
        yield machine.env.timeout(500.0)
        proc.stdout.append("survived")
        return 0

    def test_pdu_kill_mid_command_yields_node_dead(self):
        env = Environment()
        machines = small_cluster(env, n=2)

        def pdu():
            yield env.timeout(5.0)
            machines["node1"].power_off(hard=True)

        env.process(pdu(), name="pdu")
        report = run_task(env, machines, self._long_command,
                          command_timeout=1000.0)
        dead = report.results["node1"]
        assert dead.state is ExecState.NODE_DEAD
        assert "died mid-command" in dead.error
        # the death resolved at the kill, long before the command's 500 s
        assert dead.finished_at == pytest.approx(5.0)
        assert report.results["node0"].state is ExecState.OK

    def test_hang_mid_command_yields_node_dead(self):
        env = Environment()
        machines = small_cluster(env, n=1)

        def freeze():
            yield env.timeout(3.0)
            machines["node0"].hang("nmi watchdog")

        env.process(freeze(), name="freeze")
        report = run_task(env, machines, self._long_command,
                          command_timeout=1000.0)
        assert report.results["node0"].state is ExecState.NODE_DEAD
        assert report.finished_at == pytest.approx(3.0)

    def test_dead_watch_does_not_leak_state_waiters(self):
        env = Environment()
        machines = small_cluster(env, n=1)
        run_task(env, machines, lambda m, p: 0, max_retries=0)
        assert machines["node0"]._state_waiters == []

    def test_dead_watch_listeners_do_not_accumulate(self):
        env = Environment()
        machines = small_cluster(env, n=1)
        node = machines["node0"]

        def bystander(machine, state):
            pass

        node.on_state_change.append(bystander)
        calls = []

        def command(machine, proc):
            calls.append(env.now)
            if len(calls) % 3 == 0:
                raise RuntimeError("flaky")
            yield env.timeout(1.0 if len(calls) % 2 else 50.0)
            return 1

        report = run_task(env, machines, command, max_retries=40,
                          command_timeout=10.0)
        result = report.results["node0"]
        assert result.attempts == 41
        assert node.on_state_change == [bystander]
        # a later death reaches no stale watch
        node.power_off(hard=True)
        env.run()
        assert node.on_state_change == [bystander]

    @pytest.mark.parametrize("waits", [False, True])
    def test_command_that_cuts_its_own_host_and_returns_is_ok(self, waits):
        env = Environment()
        machines = small_cluster(env, n=1)

        def sync_cut(machine, proc):
            machine.power_off(hard=True)
            return 0

        def generator_cut(machine, proc):
            machine.power_off(hard=True)
            return 0
            yield  # a generator that never waits

        command = generator_cut if waits else sync_cut
        report = run_task(env, machines, command, max_retries=0)
        result = report.results["node0"]
        assert (result.state, result.exit_code, result.error) == (
            ExecState.OK, 0, None)
        assert machines["node0"].state is MachineState.OFF

    def test_command_that_cuts_its_own_host_then_waits_is_node_dead(self):
        env = Environment()
        machines = small_cluster(env, n=1)

        def cut_then_wait(machine, proc):
            yield env.timeout(2.0)
            machine.power_off(hard=True)
            yield env.timeout(5.0)
            return 0

        report = run_task(env, machines, cut_then_wait)
        result = report.results["node0"]
        assert result.state is ExecState.NODE_DEAD
        assert result.exit_code is None
        assert result.error == "host died mid-command (now off)"
        assert (result.attempts, result.finished_at) == (1, 2.0)

    @pytest.mark.parametrize("cut_first", [True, False])
    def test_deadline_and_pdu_cut_at_one_instant_classify_once(
            self, cut_first):
        """The deadline wins that instant whichever event is queued
        first, and the backoff wait after it runs to its end: no second
        interrupt is left queued for it or for the retry."""
        env = Environment()
        machines = small_cluster(env, n=1)

        def pdu():
            if not cut_first:
                # born after the worker armed its deadline
                yield env.timeout(0.0)
                yield env.timeout(0.0)
            yield env.timeout(10.0)
            machines["node0"].power_off(hard=True)

        env.process(pdu(), name="pdu")

        def long(machine, proc):
            yield env.timeout(100.0)
            return 0

        opts = ExecOptions(command_timeout=10.0, max_retries=1)
        task = ExecTask(env, Rexec(env, machines.__getitem__), opts)
        driver = task.run(["node0"], long)
        env.run(until=driver)
        result = driver.value.results["node0"]
        assert result.attempts == 2
        assert result.state is ExecState.NODE_DEAD
        assert result.error == "host is off"
        # the retry started after the whole jittered backoff
        assert BACKOFF <= result.finished_at - 10.0 <= BACKOFF * (1 + JITTER)


class TestFanoutWindow:
    def test_window_never_exceeds_fanout(self):
        env = Environment()
        machines = small_cluster(env, n=12)
        in_flight = {"now": 0, "peak": 0}

        def command(machine, proc):
            in_flight["now"] += 1
            in_flight["peak"] = max(in_flight["peak"], in_flight["now"])
            yield machine.env.timeout(10.0)
            in_flight["now"] -= 1
            return 0

        report = run_task(env, machines, command, fanout=3)
        assert report.ok
        assert in_flight["peak"] == 3

    def test_completion_slides_window_without_barrier(self):
        env = Environment()
        machines = small_cluster(env, n=4)
        starts = {}

        def command(machine, proc):
            starts[machine.hostid] = machine.env.now
            # node0 is slow; the rest are quick
            delay = 100.0 if machine.hostid == "node0" else 1.0
            yield machine.env.timeout(delay)
            return 0

        run_task(env, machines, command, fanout=2)
        # node2/node3 must start as quick slots free up, not wait for node0
        assert starts["node2"] == pytest.approx(1.0)
        assert starts["node3"] == pytest.approx(2.0)


class TestStragglers:
    def test_slow_node_flagged(self):
        lab = ExecLab(LabOptions(nodes=64, seed=7, straggler_fraction=0.05))
        report = lab.run(exec_options=ExecOptions(
            seed=7, straggler_interval=5.0, straggler_factor=2.0,
        ))
        assert len(report.stragglers) > 0
        for name in report.stragglers:
            assert name in lab.slow
        # stragglers still completed OK — slow is not dead
        assert all(report.results[n].state is ExecState.OK
                   for n in report.stragglers)

    def test_no_event_outlives_the_task(self):
        """Once the last node finishes, only the driver's own completion
        is left: the monitor's pending timer is cancelled, and draining
        the cancelled deadlines does not move the clock."""
        env = Environment()
        machines = small_cluster(env, n=2)
        report = run_task(env, machines, lambda m, p: 0)
        dispatched = env.events_dispatched
        env.run()
        assert env.events_dispatched - dispatched == 1
        assert env.now == report.finished_at == 0.0


class TestScale:
    def test_4096_nodes_with_dead_and_stragglers_completes(self):
        lab = ExecLab(LabOptions(
            nodes=4096, seed=42, dead_fraction=0.05,
            straggler_fraction=0.02,
        ))
        report = lab.run(exec_options=ExecOptions(fanout=64, seed=42))
        assert len(report.results) == 4096  # every node classified
        assert report.count(ExecState.OK) + report.count(ExecState.NODE_DEAD) \
            == 4096
        # 204 nodes are selected as dead, but one doomed node finishes
        # its command before the PDU cut lands — it counts as OK (the
        # cut missed the command), deterministically for this seed
        assert report.count(ExecState.NODE_DEAD) == 203
        # the gathered report folds 3892 identical answers into one line
        tree_lines = report.msgtree().render().splitlines()
        assert len(tree_lines) == 1

    def test_fork_scenario_dispatches_at_most_four_events_per_attempt(self):
        """The session runs inside the node's worker: an attempt costs
        the worker's start, the command's own timeout and the worker's
        end, with no session or command Process of its own."""
        lab = ExecLab(LabOptions(512, 42, 0.05, 0.02))  # the fork scenario
        report = lab.run()
        attempts = sum(r.attempts for r in report.results.values())
        assert attempts == 512
        assert lab.env.events_dispatched <= 4 * attempts

    def test_fork_scenario_dispatches_at_most_one_and_a_half_events_per_attempt(
            self):
        """A slot runs its targets one after another, so an attempt
        costs its command's own timer; each of the 64 slots adds only
        its start and its end."""
        lab = ExecLab(LabOptions(512, 42, 0.05, 0.02))  # the fork scenario
        report = lab.run(exec_options=ExecOptions(fanout=64, seed=42))
        attempts = sum(r.attempts for r in report.results.values())
        assert attempts == 512
        assert lab.env.events_dispatched <= 1.5 * attempts

    def test_instant_targets_cost_no_events_of_their_own(self):
        """100 instant targets at fanout 4: the task process's start,
        each slot's start and end, the monitor's start and end, and the
        AllOf the task waits on; no target adds an event."""
        env = Environment()
        machines = small_cluster(env, n=100)
        report = run_task(env, machines, lambda m, p: 0, fanout=4)
        assert report.count(ExecState.OK) == 100
        assert env.events_dispatched <= 12


SUBPROCESS_SCRIPT = """\
from repro.exec import ExecLab, ExecOptions, LabOptions
lab = ExecLab(LabOptions(nodes=512, seed=42, dead_fraction=0.05,
                         straggler_fraction=0.02))
report = lab.run(exec_options=ExecOptions(
    fanout=64, seed=42, straggler_interval=10.0, straggler_factor=2.5))
import sys
sys.stdout.write(report.render())
"""


class TestDeterminism:
    def test_same_seed_same_report_bytes(self):
        out = []
        for _ in range(2):
            lab = ExecLab(LabOptions(nodes=256, seed=9, dead_fraction=0.04,
                                     straggler_fraction=0.03))
            report = lab.run(exec_options=ExecOptions(fanout=32, seed=9))
            out.append(report.render())
        assert out[0] == out[1]

    def test_different_seed_different_outcome(self):
        renders = set()
        for seed in (1, 2):
            lab = ExecLab(LabOptions(nodes=128, seed=seed, dead_fraction=0.1))
            renders.add(lab.run(
                exec_options=ExecOptions(fanout=16, seed=seed)).render())
        assert len(renders) == 2

    @pytest.mark.parametrize("hashseed", ["0", "1", "424242"])
    def test_report_bytes_stable_across_hash_seeds(self, hashseed):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ,
                   PYTHONHASHSEED=hashseed,
                   PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-c", SUBPROCESS_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        expected_env = dict(env, PYTHONHASHSEED="7777")
        expected = subprocess.run(
            [sys.executable, "-c", SUBPROCESS_SCRIPT],
            capture_output=True, text=True, env=expected_env, check=True,
        ).stdout
        assert out == expected
        assert "exec: 512 targets" in out
