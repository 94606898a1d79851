"""Counters and time-weighted gauges keyed to simulated time.

A :class:`Metrics` registry holds

* **counters** — monotonically increasing totals (requests served,
  download retries, bytes moved).  An object that already keeps its
  own totals, such as an HTTP server, keeps them in a dict it gets
  from :meth:`Metrics.totals`; the registry reads that dict at export
  instead of mirroring each increment.  :meth:`Metrics.inc` counts
  into the registry's own such dict, so every counter has one store;
* **gauges** — step functions of simulated time, recorded as
  ``(t, value)`` samples whenever the value changes (per-link
  utilization, concurrent-install count).

Gauges are step-sampled, so their time-weighted mean and peak are exact
for the piecewise-constant quantities the simulation produces, and the
sample list doubles as an exportable timeseries.
"""

from __future__ import annotations

__all__ = ["Metrics", "NullMetrics"]


class Metrics:
    """A registry of named counters and time-weighted gauge timeseries."""

    def __init__(self):
        self.env = None
        self._totals: list[tuple[str, str, dict[str, float]]] = []
        self._counters = self.totals()
        self._gauges: dict[str, list[tuple[float, float]]] = {}

    def attach(self, env) -> "Metrics":
        self.env = env
        return self

    @property
    def now(self) -> float:
        return 0.0 if self.env is None else self.env.now

    # -- counters ----------------------------------------------------------
    def totals(self, prefix: str = "", suffix: str = "") -> dict[str, float]:
        """A live dict of an owner's totals, read by the registry at export.

        Each key the owner sets exports as the counter
        ``prefix + key + suffix`` (``totals("http.", "/www")`` exports
        its ``"rejected"`` as ``http.rejected/www``); a key never set
        is not exported.  Equal names from several dicts are summed.
        Only dicts made through this registry are read: an owner built
        before its environment's tracer was attached counts into a
        private dict and is not exported, so attach the tracer first.
        """
        owned: dict[str, float] = {}
        self._totals.append((prefix, suffix, owned))
        return owned

    def inc(self, name: str, n: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + n

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    @property
    def counters(self) -> dict[str, float]:
        """Every counter's current total, computed at each read."""
        out: dict[str, float] = {}
        for prefix, suffix, owned in self._totals:
            for key, n in owned.items():
                name = prefix + key + suffix
                out[name] = out.get(name, 0.0) + n
        return out

    # -- gauges ------------------------------------------------------------
    def gauge(self, name: str, value: float) -> None:
        """Record that ``name`` has ``value`` from now on (skip no-ops)."""
        samples = self._gauges.setdefault(name, [])
        if samples and samples[-1][1] == value:
            return
        if samples and samples[-1][0] == self.now:
            samples[-1] = (self.now, float(value))
            # Collapse a same-instant overwrite back into a no-op sample.
            if len(samples) >= 2 and samples[-2][1] == value:
                samples.pop()
            return
        samples.append((self.now, float(value)))

    def adjust(self, name: str, delta: float) -> float:
        """Step a gauge by ``delta`` relative to its latest value."""
        samples = self._gauges.get(name)
        current = samples[-1][1] if samples else 0.0
        value = current + delta
        self.gauge(name, value)
        return value

    def samples(self, name: str) -> list[tuple[float, float]]:
        return list(self._gauges.get(name, ()))

    def gauge_names(self) -> list[str]:
        return sorted(self._gauges)

    def value(self, name: str) -> float:
        samples = self._gauges.get(name)
        return samples[-1][1] if samples else 0.0

    # -- aggregates --------------------------------------------------------
    def peak(self, name: str) -> float:
        samples = self._gauges.get(name)
        return max(v for _, v in samples) if samples else 0.0

    def time_weighted_mean(self, name: str) -> float:
        """Mean of the gauge's step function from its first sample to now."""
        samples = self._gauges.get(name)
        if not samples:
            return 0.0
        total = 0.0
        for (t0, v), (t1, _) in zip(samples, samples[1:]):
            total += v * (t1 - t0)
        last_t, last_v = samples[-1]
        total += last_v * max(self.now - last_t, 0.0)
        duration = self.now - samples[0][0]
        return total / duration if duration > 0 else samples[-1][1]


class NullMetrics:
    """No-op registry used by the null tracer."""

    def attach(self, env) -> "NullMetrics":
        return self

    def totals(self, prefix: str = "", suffix: str = "") -> dict[str, float]:
        """A private dict: the owner still counts, nothing exports."""
        return {}

    def inc(self, name: str, n: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def adjust(self, name: str, delta: float) -> float:
        return 0.0

    def counter(self, name: str) -> float:
        return 0.0

    @property
    def counters(self) -> dict[str, float]:
        return {}

    def samples(self, name: str) -> list:
        return []

    def gauge_names(self) -> list[str]:
        return []

    def value(self, name: str) -> float:
        return 0.0

    def peak(self, name: str) -> float:
        return 0.0

    def time_weighted_mean(self, name: str) -> float:
        return 0.0
