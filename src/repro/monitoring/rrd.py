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

A series must be explicitly :meth:`~RoundRobinSeries.close`\\ d (or the
store's :meth:`~RoundRobinStore.close_all` called) before export, which
seals the in-progress buckets.  Opening a series and discarding the
handle is the RK205 lint smell: such a series can never be fed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = [
    "Resolution",
    "RoundRobinSeries",
    "RoundRobinStore",
    "DEFAULT_RESOLUTIONS",
    "feed_series",
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
        self._pending: list[tuple[float, float]] = []
        self.n_samples = 0
        self.last_t: Optional[float] = None
        self.last_value: Optional[float] = None
        self.closed = False

    #: fold the pending buffer into the rings after this many samples,
    #: so memory stays bounded even on a series nobody ever reads.
    _FOLD_CHUNK = 1024

    def _fold(self) -> None:
        """Drain buffered samples through the rings (exact, in order)."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        fine = self._fine
        coarser = self._coarser
        step = fine.step
        cur = fine.open_row
        for t, value in pending:
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
        self._fold()
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
    def latest(self) -> Optional[tuple[float, float]]:
        """The last raw sample as ``(t, value)``, or None when empty."""
        if self.last_t is None:
            return None
        return (self.last_t, self.last_value)

    def rows(self, step: Optional[float] = None) -> list[tuple[float, ...]]:
        """Sealed+open rows of one ring (finest by default), oldest first."""
        self._fold()
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
        self._fold()
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


def feed_series(series_list, t: float, values) -> None:
    """Batched ingest: one packet's metrics into their series, inlined.

    The aggregator calls this once per gmond packet with the cached
    series (one per metric, in packet order) and the packet's
    ``(name, value)`` tuples.  It only buffers: samples are folded into
    the rings in batches, on read or on close.  There is no per-sample
    monotonicity check — multicast delivery is synchronous, so an
    aggregator's feed can never go backwards in time — and no Python
    frame per metric, which is the difference between monitoring
    costing percents and costing noise.
    """
    for series, (_, value) in zip(series_list, values):
        if series.closed:
            raise RuntimeError(f"series {series.name!r} is closed")
        series.n_samples += 1
        series.last_t = t
        series.last_value = value
        series._pending.append((t, value))
        # Counter-based fold trigger (no len() call): pending can never
        # exceed the chunk size because a fold lands at least this often.
        if series.n_samples % RoundRobinSeries._FOLD_CHUNK == 0:
            series._fold()


class RoundRobinStore:
    """All the cluster's series, keyed ``<host>/<metric>``."""

    def __init__(self, resolutions: Iterable[Resolution] = DEFAULT_RESOLUTIONS):
        self.resolutions = tuple(resolutions)
        self._series: dict[str, RoundRobinSeries] = {}

    def open_series(self, name: str) -> RoundRobinSeries:
        """The series called ``name``, created on first open.

        Keep the handle and feed it with :func:`feed_series`: an
        opened-and-discarded series can never receive samples — the
        RK205 lint flags that.
        """
        series = self._series.get(name)
        if series is None:
            series = RoundRobinSeries(name, self.resolutions)
            self._series[name] = series
        return series

    def get(self, name: str) -> Optional[RoundRobinSeries]:
        return self._series.get(name)

    def series_names(self) -> list[str]:
        return sorted(self._series)

    @property
    def n_series(self) -> int:
        return len(self._series)

    def close_all(self) -> None:
        """Seal every series (flush before export)."""
        for series in self._series.values():
            series.close()

    # -- deterministic export ------------------------------------------------
    def export(self) -> dict:
        """The whole store as a plain dict (series sorted by name)."""
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
