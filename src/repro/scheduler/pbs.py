"""The Portable Batch System substrate.

§4.1: "we've packaged the Portable Batch System (PBS) and the Maui
scheduler.  PBS is used for its workload management system (starting
and monitoring jobs) and Maui is used for its rich scheduling
functionality.  When the frontend is installed, PBS and Maui are
automatically started and a default queue is defined."

PBS here is the bookkeeping half: queues, job records, node states.
Scheduling decisions (which job runs where, draining nodes for a
cluster reinstall) belong to :mod:`repro.scheduler.maui`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from ..netsim import Environment, Event

__all__ = ["PbsServer", "Job", "JobState", "NodeState", "PbsError"]


class PbsError(Exception):
    """qsub/pbsnodes misuse."""


class JobState(enum.Enum):
    QUEUED = "Q"
    RUNNING = "R"
    COMPLETE = "C"
    FAILED = "F"  # a node died under the job


class NodeState(enum.Enum):
    FREE = "free"
    JOB_EXCLUSIVE = "job-exclusive"
    DOWN = "down"
    OFFLINE = "offline"  # administratively drained


@dataclass
class Job:
    """One batch job."""

    job_id: int
    owner: str
    name: str
    nodes_requested: int
    walltime: float
    priority: int = 0
    system: bool = False  # e.g. the "reinstall cluster" job (§5)
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    state: JobState = JobState.QUEUED
    assigned_nodes: list[str] = field(default_factory=list)
    #: pin the job to specific hosts (e.g. "reinstall exactly this node")
    required_nodes: Optional[list[str]] = None
    #: invoked as fn(job) when the job starts (lets the reinstall job act)
    on_start: Optional[Callable[["Job"], None]] = None
    done: Optional[Event] = None

    @property
    def jid(self) -> str:
        return f"{self.job_id}.frontend-0"


class PbsServer:
    """pbs_server: queue and node-state bookkeeping.

    When constructed with ``resolve`` (hostname -> Machine), jobs become
    *real*: starting a job registers a process on each assigned machine
    (pbs_mom's child), and a machine leaving the UP state mid-job fails
    the job — so "do not disturb running applications" (§5) is an
    observable property, not an assumption.
    """

    def __init__(
        self,
        env: Environment,
        default_queue: str = "default",
        resolve: Optional[Callable[[str], Any]] = None,
    ):
        self.env = env
        self.default_queue = default_queue
        self.resolve = resolve
        self.queues: dict[str, list[Job]] = {default_queue: []}
        self._jobs: dict[int, Job] = {}
        self._nodes: dict[str, NodeState] = {}
        self._ids = itertools.count(1)
        self._watchers: dict[int, list[tuple[Any, Callable]]] = {}

    # -- node management (pbsnodes) ------------------------------------------
    def register_node(self, name: str) -> None:
        if name in self._nodes:
            raise PbsError(f"node {name} already registered")
        self._nodes[name] = NodeState.FREE

    def set_node_state(self, name: str, state: NodeState) -> None:
        if name not in self._nodes:
            raise PbsError(f"unknown node {name}")
        self._nodes[name] = state

    def node_state(self, name: str) -> NodeState:
        return self._nodes[name]

    def nodes(self, state: Optional[NodeState] = None) -> list[str]:
        return sorted(
            n for n, s in self._nodes.items() if state is None or s is state
        )

    # -- job management (qsub/qstat) ---------------------------------------------
    def qsub(
        self,
        owner: str,
        name: str,
        nodes: int,
        walltime: float,
        queue: Optional[str] = None,
        priority: int = 0,
        system: bool = False,
        on_start: Optional[Callable[[Job], None]] = None,
        required_nodes: Optional[list[str]] = None,
    ) -> Job:
        if nodes <= 0:
            raise PbsError("a job needs at least one node")
        if walltime <= 0:
            raise PbsError("walltime must be positive")
        if required_nodes is not None and len(required_nodes) != nodes:
            raise PbsError("required_nodes length must match the node count")
        qname = queue or self.default_queue
        if qname not in self.queues:
            raise PbsError(f"no queue named {qname}")
        job = Job(
            job_id=next(self._ids),
            owner=owner,
            name=name,
            nodes_requested=nodes,
            walltime=walltime,
            priority=priority,
            system=system,
            submitted_at=self.env.now,
            on_start=on_start,
            done=self.env.event(),
            required_nodes=list(required_nodes) if required_nodes else None,
        )
        self._jobs[job.job_id] = job
        self.queues[qname].append(job)
        return job

    def qstat(self, state: Optional[JobState] = None) -> list[Job]:
        return sorted(
            (j for j in self._jobs.values() if state is None or j.state is state),
            key=lambda j: j.job_id,
        )

    def job(self, job_id: int) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise PbsError(f"unknown job {job_id}") from None

    # -- execution hooks (driven by the scheduler) ------------------------------------
    def start_job(self, job: Job, nodes: list[str]) -> None:
        """Mark a queued job running on ``nodes`` and arm its completion."""
        if job.state is not JobState.QUEUED:
            raise PbsError(f"job {job.jid} is {job.state.value}, not queued")
        if len(nodes) != job.nodes_requested:
            raise PbsError(
                f"job {job.jid} wants {job.nodes_requested} nodes, got {len(nodes)}"
            )
        for n in nodes:
            if self._nodes.get(n) is not NodeState.FREE:
                raise PbsError(f"node {n} is not free")
        for q in self.queues.values():
            if job in q:
                q.remove(job)
        job.state = JobState.RUNNING
        job.started_at = self.env.now
        job.assigned_nodes = list(nodes)
        for n in nodes:
            self._nodes[n] = NodeState.JOB_EXCLUSIVE
        self._attach_to_machines(job)
        if job.on_start is not None:
            job.on_start(job)

        def run():
            yield self.env.timeout(job.walltime)
            if job.state is JobState.RUNNING:
                self._finish(job, JobState.COMPLETE)

        self.env.process(run(), name=f"job:{job.jid}")

    def _attach_to_machines(self, job: Job) -> None:
        """Spawn the job's processes on its machines and watch their health."""
        if self.resolve is None or job.system:
            return
        watchers = []
        for hostname in job.assigned_nodes:
            try:
                machine = self.resolve(hostname)
            except KeyError:
                continue
            machine.user_processes.append(job.name)

            def on_change(m, state, _job=job):
                # Any transition away from UP kills this MPI-style job.
                if (
                    _job.state is JobState.RUNNING
                    and state.value != "up"
                ):
                    self._finish(_job, JobState.FAILED)

            machine.on_state_change.append(on_change)
            watchers.append((machine, on_change))
        self._watchers[job.job_id] = watchers

    def _detach_from_machines(self, job: Job) -> None:
        for machine, listener in self._watchers.pop(job.job_id, []):
            if job.name in machine.user_processes:
                machine.user_processes.remove(job.name)
            if listener in machine.on_state_change:
                machine.on_state_change.remove(listener)

    def finish_job(self, job: Job) -> None:
        """Complete a running job before its walltime (its payload is done)."""
        if job.state is JobState.RUNNING:
            self._finish(job, JobState.COMPLETE)

    def _finish(self, job: Job, state: JobState) -> None:
        job.state = state
        job.finished_at = self.env.now
        self._detach_from_machines(job)
        for n in job.assigned_nodes:
            if self._nodes.get(n) is NodeState.JOB_EXCLUSIVE:
                self._nodes[n] = NodeState.FREE
        if job.done is not None and not job.done.triggered:
            job.done.succeed(job)

    def queued_jobs(self) -> list[Job]:
        out: list[Job] = []
        for q in self.queues.values():
            out.extend(q)
        return sorted(out, key=lambda j: j.job_id)
