"""Round-robin time-series storage (the RRDtool idea, simulation-grade).

Ganglia's gmetad persists every metric into RRD files: fixed-size rings
at several resolutions, so storage is bounded no matter how long the
cluster runs, and old data survives as coarser aggregates instead of
disappearing.  This module is that model in memory:

* a :class:`RoundRobinSeries` holds one archive per
  :class:`Resolution`, finest first; raw samples land in the finest
  ring, and every time a ring seals a bucket the sealed row **cascades**
  into the next-coarser ring (steps must divide evenly, so the cascade
  is exact, not approximate);
* each row keeps ``(count, sum, min, max)`` — mean is ``sum / count``,
  and because those aggregates are associative the cascaded coarse rows
  equal what the raw samples would have produced directly;
* rings overwrite oldest-first once full (that is the "round-robin").

:meth:`RoundRobinStore.export` is a plain dict of sorted series, which
the monitoring stack writes as canonical JSON, so two same-seed runs
produce **byte-identical** files; the determinism test suite diffs them
raw.

The store has one ingest, :meth:`RoundRobinStore.record`: one gmond
packet's metrics dict per call, buffered per host and folded into the
rings in batches.  :meth:`~RoundRobinStore.close_all` seals the
in-progress buckets before export.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = [
    "Resolution",
    "RoundRobinSeries",
    "RoundRobinStore",
    "DEFAULT_RESOLUTIONS",
]


@dataclass(frozen=True)
class Resolution:
    """One ring: ``step`` seconds per row, ``rows`` rows before wrap."""

    step: float
    rows: int

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError("resolution step must be positive")
        if self.rows < 1:
            raise ValueError("resolution needs at least one row")

    @property
    def span(self) -> float:
        """Seconds of history this ring retains."""
        return self.step * self.rows


#: 15 s for an hour, 1 min for three hours, 5 min for a day — enough to
#: watch a reinstall campaign live and keep the whole run's shape after.
DEFAULT_RESOLUTIONS = (
    Resolution(15.0, 240),
    Resolution(60.0, 180),
    Resolution(300.0, 288),
)


class _Ring:
    """One fixed-size archive: sealed rows plus the in-progress bucket.

    A row is ``[bucket_t, count, sum, min, max]`` covering samples with
    ``bucket_t <= t < bucket_t + step``.
    """

    __slots__ = ("step", "capacity", "rows", "open_row")

    def __init__(self, step: float, capacity: int):
        self.step = step
        self.capacity = capacity
        self.rows: list[list[float]] = []
        self.open_row: Optional[list[float]] = None

    def add(self, t: float, count: float, vsum: float,
            vmin: float, vmax: float) -> Optional[list[float]]:
        """Merge an aggregate into the bucket containing ``t``.

        Returns the row this add sealed (time moved past its bucket),
        or None; the caller cascades sealed rows to the coarser ring.
        """
        # Float floor-division is exact (floor of the true quotient), so
        # bucket boundaries are stable without a math.floor call — this
        # is the hottest line in the monitoring stack.
        bucket = t // self.step * self.step
        sealed = None
        cur = self.open_row
        if cur is not None and bucket > cur[0]:
            sealed = self.seal()
            cur = None
        if cur is None:
            self.open_row = [bucket, count, vsum, vmin, vmax]
        else:
            cur[1] += count
            cur[2] += vsum
            if vmin < cur[3]:
                cur[3] = vmin
            if vmax > cur[4]:
                cur[4] = vmax
        return sealed

    def seal(self) -> Optional[list[float]]:
        """Finalize the in-progress bucket into the ring (trim oldest)."""
        row = self.open_row
        if row is None:
            return None
        self.open_row = None
        self.rows.append(row)
        if len(self.rows) > self.capacity:
            del self.rows[: len(self.rows) - self.capacity]
        return row


class RoundRobinSeries:
    """One metric's multi-resolution history."""

    def __init__(self, name: str, resolutions: Iterable[Resolution]):
        res = sorted(resolutions, key=lambda r: r.step)
        if not res:
            raise ValueError("a series needs at least one resolution")
        for fine, coarse in zip(res, res[1:]):
            ratio = coarse.step / fine.step
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(
                    f"cascade requires dividing steps: {coarse.step} is not "
                    f"a multiple of {fine.step}"
                )
        self.name = name
        self.resolutions = tuple(res)
        self._rings = [_Ring(r.step, r.rows) for r in res]
        self._fine = self._rings[0]
        self._coarser = tuple(self._rings[1:])
        self.n_samples = 0
        self.closed = False

    def _ingest(self, samples: list[tuple[float, float]]) -> None:
        """Run ``(t, value)`` samples through the rings (exact, in order).

        There is no per-sample monotonicity check: multicast delivery is
        synchronous, so a store's feed can never go backwards in time.
        """
        if self.closed:
            raise RuntimeError(f"series {self.name!r} is closed")
        self.n_samples += len(samples)
        fine = self._fine
        coarser = self._coarser
        step = fine.step
        cur = fine.open_row
        for t, value in samples:
            bucket = t // step * step
            if cur is None:
                cur = [bucket, 1.0, value, value, value]
            elif bucket <= cur[0]:
                cur[1] += 1.0
                cur[2] += value
                if value < cur[3]:
                    cur[3] = value
                if value > cur[4]:
                    cur[4] = value
            else:
                fine.open_row = cur
                sealed = fine.seal()
                cur = [bucket, 1.0, value, value, value]
                for ring in coarser:
                    sealed = ring.add(sealed[0], sealed[1], sealed[2],
                                      sealed[3], sealed[4])
                    if sealed is None:
                        break
        fine.open_row = cur

    def close(self) -> None:
        """Seal in-progress buckets (cascading) and freeze the series."""
        if self.closed:
            return
        # Merging a carried row can itself seal a bucket in the coarser
        # ring, so each ring may hand more than one row downward here.
        carry_rows: list[list[float]] = []
        for ring in self._rings:
            next_rows: list[list[float]] = []
            for row in carry_rows:
                sealed = ring.add(*row)
                if sealed is not None:
                    next_rows.append(sealed)
            final = ring.seal()
            if final is not None:
                next_rows.append(final)
            carry_rows = next_rows
        self.closed = True

    # -- reading ------------------------------------------------------------
    def rows(self, step: Optional[float] = None) -> list[tuple[float, ...]]:
        """Sealed+open rows of one ring (finest by default), oldest first."""
        ring = self._ring_for(step)
        out = [tuple(r) for r in ring.rows]
        if ring.open_row is not None:
            out.append(tuple(ring.open_row))
        return out

    def means(self, step: Optional[float] = None) -> list[tuple[float, float]]:
        """``(bucket_t, mean)`` per bucket of one ring, oldest first."""
        return [(r[0], r[2] / r[1]) for r in self.rows(step) if r[1] > 0]

    def _ring_for(self, step: Optional[float]) -> _Ring:
        if step is None:
            return self._rings[0]
        for ring in self._rings:
            if ring.step == step:
                return ring
        raise KeyError(
            f"series {self.name!r} has no {step}s ring; "
            f"have {[r.step for r in self._rings]}"
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.n_samples,
            "archives": [
                {
                    "step": ring.step,
                    "rows": [list(r) for r in ring.rows]
                    + ([list(ring.open_row)]
                       if ring.open_row is not None else []),
                }
                for ring in self._rings
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RoundRobinSeries({self.name!r}, {self.n_samples} samples)"


class RoundRobinStore:
    """All the cluster's series, keyed ``<host>/<metric>``."""

    #: fold once a host has this many packets buffered, so memory stays
    #: bounded even on a store nobody reads.
    _FOLD_PACKETS = 1024

    def __init__(self, resolutions: Iterable[Resolution] = DEFAULT_RESOLUTIONS):
        self.resolutions = tuple(resolutions)
        self._series: dict[str, RoundRobinSeries] = {}
        #: host -> the ``(t, metrics)`` packets not yet folded
        self._pending: dict[str, list[tuple[float, dict]]] = {}
        self._closed = False

    def record(self, host: str, t: float, metrics: dict[str, float]) -> None:
        """Ingest one packet: ``metrics`` are ``host``'s readings at ``t``.

        The packet is only buffered; a fold later sends each reading to
        its ``<host>/<metric>`` series, in arrival order.  ``metrics``
        is kept, not copied, so it must not change after the call, as a
        sent packet's readings never do.
        """
        if self._closed:
            raise RuntimeError("the store is closed")
        pending = self._pending
        if host in pending:
            packets = pending[host]
        else:
            packets = pending[host] = []
        packets.append((t, metrics))
        if len(packets) >= self._FOLD_PACKETS:
            self._fold()

    def _fold(self) -> None:
        """Drain every buffered packet into its series' rings."""
        for host, packets in self._pending.items():
            # every metric the host reported, in first-reported order
            reported: dict[str, float] = {}
            for _, metrics in packets:
                reported.update(metrics)
            for metric in reported:
                name = f"{host}/{metric}"
                series = self._series.get(name)
                if series is None:
                    series = self._series[name] = RoundRobinSeries(
                        name, self.resolutions)
                series._ingest([(t, metrics[metric]) for t, metrics in packets
                                if metric in metrics])
        self._pending = {}

    def get(self, name: str) -> Optional[RoundRobinSeries]:
        self._fold()
        return self._series.get(name)

    def series_names(self) -> list[str]:
        self._fold()
        return sorted(self._series)

    @property
    def n_series(self) -> int:
        self._fold()
        return len(self._series)

    def close_all(self) -> None:
        """Seal every series (flush before export); later records raise."""
        self._fold()
        for series in self._series.values():
            series.close()
        self._closed = True

    # -- deterministic export ------------------------------------------------
    def export(self) -> dict:
        """The whole store as a plain dict (series sorted by name)."""
        self._fold()
        return {
            "format": "repro-rrd",
            "version": 1,
            "resolutions": [
                {"step": r.step, "rows": r.rows} for r in self.resolutions
            ],
            "series": {
                name: self._series[name].to_dict()
                for name in sorted(self._series)
            },
        }
