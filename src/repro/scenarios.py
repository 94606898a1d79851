"""The named scenarios: one definition each, shared by every verb.

``repro trace``, ``explain`` and ``sanitize`` look scenarios up here.  A
runner ``run(nodes, seed, tracer)`` returns canonical text that digests
to its row in ``tests/core/golden/manifest.json``; tracing never changes
it.  Runners import their drivers lazily, so this module is cheap.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

__all__ = ["SCENARIOS", "Scenario"]


class Scenario(NamedTuple):
    nodes: int
    seed: int
    run: Callable[..., str]

    def __call__(self, nodes=None, seed=None, tracer=None, **knobs) -> str:
        """Run it; a ``None`` size or seed means this scenario's own."""
        return self.run(self.nodes if nodes is None else nodes,
                        self.seed if seed is None else seed, tracer, **knobs)


def _reinstall(nodes: int, seed: int, tracer) -> str:
    """The paper's Table I point: integrate + concurrently reinstall."""
    from . import build_cluster

    sim = build_cluster(n_compute=nodes, seed=seed, tracer=tracer)
    sim.integrate_all()
    reports = sorted(sim.reinstall_all(), key=lambda r: r.host)
    return "".join(f"{r.host} {r.method} {r.started_at!r} {r.finished_at!r}\n"
                   for r in reports)


def _storm(nodes: int, seed: int, tracer) -> str:
    """Whole-site power-restore install storm; the text is the SLO JSON."""
    from .load import StormOptions, run_storm

    return run_storm(StormOptions(nodes, seed), tracer=tracer).slo_json()


def _chaos(nodes: int, seed: int, tracer, plan: str = "default") -> str:
    """Reinstall campaign under a fault plan re-seeded with ``seed``."""
    from .faults import chaos_reinstall

    return chaos_reinstall(nodes, plan, seed, tracer=tracer).render() + "\n"


def _fork(nodes: int, seed: int, tracer) -> str:
    """cluster-fork over every lab node, 5% dead and 2% straggling."""
    from .exec import ExecLab, LabOptions

    lab = ExecLab(LabOptions(nodes, seed, 0.05, 0.02))
    if tracer is not None:
        tracer.attach(lab.env)
    return lab.run().render() + "\n"


def _race_fixture(nodes: int, seed: int, tracer) -> str:
    """The sanitizer's positive control, a planted same-tick race: n
    workers wake at t=10, logically concurrent, and both their append
    order and the non-associative float update depend on dispatch order.
    """
    from .netsim import Environment

    env = Environment()  # ambient sanitize makes this a SanitizedEnvironment
    order: list[int] = []
    shared = [0.0]

    def worker(i: int):
        yield env.timeout(10.0)
        order.append(i)
        shared[0] = shared[0] * 1.0000001 + i  # order-sensitive

    for i in range(nodes):
        env.process(worker(i), name=f"racer{i}")
    env.run()
    return repr((order, shared[0])) + "\n"


SCENARIOS: dict[str, Scenario] = {
    "chaos": Scenario(8, 0, _chaos),
    "fork": Scenario(512, 42, _fork),
    "race-fixture": Scenario(8, 0, _race_fixture),
    "reinstall": Scenario(8, 0, _reinstall),
    "storm": Scenario(12, 42, _storm),
}
