"""Workload management substrate: PBS, the Maui scheduler, and REXEC."""

from .maui import MauiScheduler
from .mpirun import Mpirun, MpirunError
from .pbs import Job, JobState, NodeState, PbsError, PbsServer
from .rexec import RemoteEnvironment, RemoteProcess, Rexec

__all__ = [
    "MauiScheduler",
    "Mpirun",
    "MpirunError",
    "Job",
    "JobState",
    "NodeState",
    "PbsError",
    "PbsServer",
    "RemoteEnvironment",
    "RemoteProcess",
    "Rexec",
]
