"""Finished transfers leave nothing for the cycle collector.

A flow holds its ``done`` event, so the event must not hold the flow:
``done`` triggers with no value.  Then a finished flow is freed by
reference counting the moment its last holder drops it, and a storm or
a Table I point leaves no flow or event as cyclic garbage.
"""

import gc
import weakref

from repro.load import StormOptions, run_storm
from repro.netsim import Environment, Event, FlowNetwork, Link
from repro.netsim.flows import Flow
from repro.scenarios import reinstall_point


def test_a_finished_flow_dies_with_its_last_reference():
    gc.collect()
    gc.disable()
    try:
        env = Environment()
        net = FlowNetwork(env)
        flow = net.transfer([Link("wire", 10.0)], 100.0)
        env.run()
        assert flow.done.triggered and flow.done.value is None
        ref = weakref.ref(flow)
        del flow
        assert ref() is None
    finally:
        gc.enable()


def cyclic_garbage(run):
    """The flows and events that only the cycle collector could free
    among what ``run()`` leaves behind."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        kept = run()
        gc.collect()
        found = [obj for obj in gc.garbage if isinstance(obj, (Flow, Event))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    del kept
    return found


def test_a_table1_point_leaves_no_cyclic_flow_or_event():
    assert cyclic_garbage(lambda: reinstall_point(2)) == []


def test_a_storm_leaves_no_cyclic_flow_or_event():
    assert cyclic_garbage(lambda: run_storm(StormOptions(n_nodes=4))) == []
