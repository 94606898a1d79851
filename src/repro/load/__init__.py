"""The install-storm scenario driver.

:mod:`~repro.load.storm` replays the whole-site power restore (every
PDU drops, then re-energizes at once) end to end: every node boots
together and pulls its full distribution from one frontend.  It reports
p99 install-HTTP latency, shed rate and time-to-stable-cluster as a
canonical-JSON SLO report.
"""

from .storm import StormOptions, StormResult, run_storm, slo_json

__all__ = [
    "StormOptions",
    "StormResult",
    "run_storm",
    "slo_json",
]
