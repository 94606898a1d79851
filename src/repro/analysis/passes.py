"""The analyzer pass registry and the shared run loop.

A :class:`Pass` is one analyzer: it declares the codes it may emit and
produces :class:`~repro.analysis.diagnostics.Diagnostic` objects from a
context.  Three families are registered here:

* ``CONFIG_PASSES`` run over a :class:`~repro.analysis.config_passes.ConfigContext`
  (graph + node files + distribution) — the §6.1 XML infrastructure;
* ``SELF_PASSES`` run over a :class:`~repro.analysis.selfcheck.SelfLintContext`
  (parsed ASTs of our own source) — the determinism linter;
* ``DEEP_PASSES`` run over a :class:`~repro.analysis.deepcheck.DeepContext`
  (project-wide symbol table + call graph) — the RK3xx dataflow
  determinism passes behind ``repro lint --deep``.

``run_passes`` is the only execution path: it runs every selected pass,
sorts the result deterministically, and applies ``--select``/``--ignore``
code-prefix filters, so every front end (CLI, CI,
``KickstartGenerator.lint_diagnostics``) sees identical behaviour.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from .diagnostics import CODES, Diagnostic

__all__ = [
    "Pass",
    "CONFIG_PASSES",
    "SELF_PASSES",
    "DEEP_PASSES",
    "register_config",
    "register_self",
    "register_deep",
    "run_passes",
    "filter_codes",
]


class Pass:
    """One analyzer.  Subclass or wrap a function via the decorators."""

    #: codes this pass may emit (checked against the registry at import)
    codes: tuple[str, ...] = ()
    name: str = "pass"

    def run(self, ctx: Any) -> Iterable[Diagnostic]:  # pragma: no cover
        raise NotImplementedError


class _FunctionPass(Pass):
    def __init__(self, fn: Callable[[Any], Iterable[Diagnostic]],
                 codes: Sequence[str]):
        self.fn = fn
        self.codes = tuple(codes)
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def run(self, ctx: Any) -> Iterable[Diagnostic]:
        return self.fn(ctx)


CONFIG_PASSES: list[Pass] = []
SELF_PASSES: list[Pass] = []
DEEP_PASSES: list[Pass] = []


def _register(registry: list[Pass], codes: Sequence[str]):
    for code in codes:
        if code not in CODES:
            raise ValueError(f"pass declares unregistered code {code!r}")

    def deco(fn: Callable[[Any], Iterable[Diagnostic]]):
        registry.append(_FunctionPass(fn, codes))
        return fn

    return deco


def register_config(*codes: str):
    """Register a config-graph analyzer emitting ``codes``."""
    return _register(CONFIG_PASSES, codes)


def register_self(*codes: str):
    """Register a determinism self-lint analyzer emitting ``codes``."""
    return _register(SELF_PASSES, codes)


def register_deep(*codes: str):
    """Register a dataflow determinism analyzer emitting ``codes``.

    Deep passes run over a :class:`~repro.analysis.deepcheck.DeepContext`
    (project-wide symbol table + call graph), not the per-file ASTs the
    self-linter sees, so they live in their own registry and behind
    ``repro lint --deep``.
    """
    return _register(DEEP_PASSES, codes)


def _match_any(code: str, prefixes: Sequence[str]) -> bool:
    return any(code.startswith(p) for p in prefixes)


def filter_codes(
    diagnostics: Iterable[Diagnostic],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> list[Diagnostic]:
    """Keep diagnostics whose code matches ``select`` prefixes (all, when
    None) and does not match any ``ignore`` prefix."""
    out = []
    for diag in diagnostics:
        if select is not None and not _match_any(diag.code, select):
            continue
        if ignore is not None and _match_any(diag.code, ignore):
            continue
        out.append(diag)
    return out


def run_passes(
    passes: Sequence[Pass],
    ctx: Any,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> list[Diagnostic]:
    """Run every pass (skipping ones fully filtered out), sorted output."""
    diagnostics: list[Diagnostic] = []
    for p in passes:
        if select is not None and not any(_match_any(c, select) for c in p.codes):
            continue
        if ignore is not None and all(_match_any(c, ignore) for c in p.codes):
            continue
        diagnostics.extend(p.run(ctx))
    diagnostics = filter_codes(diagnostics, select, ignore)
    diagnostics.sort(key=lambda d: d.sort_key)
    return diagnostics
