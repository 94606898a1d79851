"""Roll a ``cProfile`` profile up to the simulator's layers.

The wall-time half of ``repro explain --profile``: the critical path
says why *simulated* time went where it did, this rollup says where the
run's *wall* time went.  The profile's own timings are the only clock
read.

A function belongs to the layer that owns its source file under the
``repro`` package: ``netsim/flows.py`` is ``netsim.flows``,
``exec/task.py`` is ``exec``, ``quickbuild.py`` is ``quickbuild``.
Layers not named in :data:`LAYERS` are summed as ``other``.

Everything else -- C builtins and standard-library Python -- is charged
to the layer that called it, split by the self time the profile
records per caller.  A foreign function called by another foreign
function inherits that caller's split.  Time with no ``repro`` frame
above it (the profiling caller's own code, the profiler's own calls)
is ``unattributed``.  Every function's self time goes to exactly one
split, so the layers sum to the profiled total.
"""

from __future__ import annotations

import os

#: layers reported by name, in report order
LAYERS = (
    "netsim.engine",
    "netsim.flows",
    "netsim.http",
    "netsim.topology",
    "exec",
    "scheduler",
    "services",
    "load",
    "resilience",
    "monitoring",
    "faults",
    "telemetry",
    "installer",
    "rpm",
    "core",
    "cluster",
    "kernel",
    "quickbuild",
)
OTHER = "other"
UNATTRIBUTED = "unattributed"


def owner(filename: str, package: str):
    """The layer owning ``filename``, or None outside the package."""
    rel = os.path.relpath(os.path.abspath(filename), package)
    if rel.startswith(os.pardir) or not rel.endswith(".py"):
        return None
    parts = rel[: -len(".py")].split(os.sep)
    if parts[0] == "netsim" and len(parts) == 2:
        name = "netsim." + parts[1]
    else:
        name = parts[0]
    return name if name in LAYERS else OTHER


def rollup(stats: dict, package: str) -> dict:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    Returns ``{layer: seconds}`` over :data:`LAYERS`, ``other`` and
    ``unattributed`` (every key present), plus ``total``: the profile's
    summed self time, which the layers add up to.
    """
    layer_of = {
        func: (owner(func[0], package) if func[0] != "~" else None)
        for func in stats
    }
    splits: dict = {}

    def split(func, active: frozenset) -> dict:
        """Fractions of ``func``'s self time per layer.

        ``active`` holds the foreign callers already on the walk, so a
        recursive chain of foreign calls cannot loop.
        """
        layer = layer_of.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in splits:
            return splits[func]
        callers = stats[func][4] if func in stats else {}
        weights = {c: v[2] for c, v in callers.items() if c not in active}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: v[0] for c, v in callers.items() if c not in active}
            total = sum(weights.values())
        if total <= 0:
            # No caller, or no caller edge with time or calls (cProfile's
            # edge for a generator.throw caught below the top of a
            # process's yield-from chain): nothing to split by.
            splits[func] = {UNATTRIBUTED: 1.0}
            return splits[func]
        result = {}
        for caller, weight in weights.items():
            for layer, frac in split(caller, active | {func}).items():
                result[layer] = result.get(layer, 0.0) + frac * weight / total
        splits[func] = result
        return result

    out = dict.fromkeys((*LAYERS, OTHER, UNATTRIBUTED), 0.0)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, frac in split(func, frozenset()).items():
            out[layer] += tt * frac
    out["total"] = sum(entry[2] for entry in stats.values())
    return out


def render(layers: dict) -> str:
    """The :func:`rollup` result as a table: one row per layer, then the
    total.  Seconds keep twelve decimals so the rows visibly add up to
    the total; the share column is the readable one."""
    total = layers["total"]
    lines = ["wall-time profile (cProfile self time per layer):",
             "           seconds   share  layer"]
    for name in (*LAYERS, OTHER, UNATTRIBUTED, "total"):
        share = 100.0 * layers[name] / total if total > 0 else 0.0
        lines.append(f"  {layers[name]:16.12f} {share:6.1f}%  {name}")
    return "\n".join(lines)
