"""repro.analysis — typed static analysis for the Rocks description layer.

Three analyzer families over one diagnostics core:

* **config analyzers** (:mod:`repro.analysis.config_passes`): semantic
  checks over the kickstart graph, node files, and rocks-dist stack —
  the defects the CERN/BNL follow-up papers report as the dominant
  cause of failed mass reinstalls, caught before any install;
* **determinism self-linter** (:mod:`repro.analysis.selfcheck`): AST
  passes over ``src/repro`` itself that flag the wall-clock / unseeded
  RNG / unordered-iteration / leaked-span bug classes earlier PRs fixed
  by hand (RK2xx), plus the hazards the sanitizer cannot prove (RK301
  unseeded ``Random()``, RK302 yield-straddling staleness, RK303
  unbounded wait loops, RK304 set-order float sums);
* **dynamic sanitizer** (:mod:`repro.analysis.sanitizer`): a runtime
  race detector that perturbs same-tick scheduling order under a seeded
  RNG and proves races by digest divergence.

Entry points::

    from repro.analysis import ConfigContext, analyze_config
    diags = analyze_config(ConfigContext(graph, node_files,
                                         dist_resolver=resolver))

    from repro.analysis import analyze_self, default_self_context
    diags = analyze_self(default_self_context())

    from repro.analysis import run_scenario, diagnose_divergence
    race = diagnose_divergence(run_scenario("reinstall", 1),
                               run_scenario("reinstall", 2))

or ``python -m repro lint [--self] [--strict]`` and
``python -m repro sanitize reinstall`` (names: :mod:`repro.scenarios`).
"""

from .baseline import Baseline, BaselineEntry
from .config_passes import PROVIDED_ATTRIBUTES, ConfigContext, analyze_config
from .diagnostics import CODES, CodeInfo, Diagnostic, Severity, SourceLocation, code_info
from .passes import (
    CONFIG_PASSES,
    SELF_PASSES,
    Pass,
    filter_codes,
    register_config,
    register_self,
    run_passes,
)
from .render import JSON_SCHEMA_VERSION, render_json, render_text, summarize
from .sanitizer import (
    SanitizeOptions,
    SanitizedEnvironment,
    SanitizerSession,
    diagnose_divergence,
    run_scenario,
    sanitized,
)
from .selfcheck import SelfLintContext, analyze_self, default_self_context

__all__ = [
    "Baseline",
    "BaselineEntry",
    "CODES",
    "CodeInfo",
    "ConfigContext",
    "CONFIG_PASSES",
    "Diagnostic",
    "JSON_SCHEMA_VERSION",
    "Pass",
    "PROVIDED_ATTRIBUTES",
    "SELF_PASSES",
    "SanitizeOptions",
    "SanitizedEnvironment",
    "SanitizerSession",
    "SelfLintContext",
    "Severity",
    "SourceLocation",
    "analyze_config",
    "analyze_self",
    "code_info",
    "default_self_context",
    "diagnose_divergence",
    "filter_codes",
    "register_config",
    "register_self",
    "render_json",
    "render_text",
    "run_scenario",
    "run_passes",
    "sanitized",
    "summarize",
]
