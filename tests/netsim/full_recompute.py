"""The full-recompute fair-share oracle for differential tests.

:class:`FullRecomputeNetwork` refills *every* bottleneck component on
every change, where :class:`~repro.netsim.FlowNetwork` refills only the
components a change touches.  Untouched components are refilled but not
credited, so both networks credit at the exact same instants and must
agree bit for bit.
"""

from repro.netsim import FlowNetwork
from repro.netsim.flows import _flow_seq


class FullRecomputeNetwork(FlowNetwork):
    __slots__ = ()

    def _closure(self):
        affected, comps = super()._closure()
        seen = {flow for comp in comps for flow in comp}
        for seed in self._flows:
            if seed in seen:
                continue
            comp = [seed]
            seen.add(seed)
            stack = [seed]
            while stack:
                for link in stack.pop().path:
                    for other in link._flows:
                        if other not in seen:
                            seen.add(other)
                            comp.append(other)
                            stack.append(other)
            comp.sort(key=_flow_seq)
            comps.append(comp)
        return affected, comps
