"""The self-hosted determinism linter: AST passes over our own source.

PRs 1-3 made byte-identical determinism a load-bearing guarantee —
journal replay, same-seed traces, chaos verdicts all compare runs
byte-for-byte.  Every determinism bug fixed so far was one of four
shapes, and each is mechanically detectable in the AST:

* **RK201** — wall-clock reads (``time.time``, ``datetime.now``):
  simulation code must only read ``env.now``;
* **RK202** — module-level ``random.*`` calls: the shared global RNG is
  unseeded cross-test state; use a seeded ``random.Random`` instance;
* **RK203** — ``for``-iteration over a ``set``/``frozenset`` in the
  netsim/installer hot paths: set order varies with hash seeding and
  history, so anything order-sensitive (float accumulation, event
  sequencing) silently diverges;
* **RK204** — a telemetry span opened and discarded (``tracer.span(...)``
  as a bare statement): it can never be closed, so it exports with
  ``t1: null`` and poisons duration aggregates;
* **RK206** — an unbounded queue constructed in the ``load``/``netsim``/
  ``exec`` packages (``deque()`` with no ``maxlen``, ``Queue()``/
  ``SimpleQueue()`` with no size bound): these hold the request paths
  that every node can feed at once, so a buffer there grows with the
  cluster and must carry an explicit bound or a baseline entry naming
  the invariant that bounds it;
* **RK207** — a ``for`` loop over cluster membership whose body waits on
  the simulation per host (``env.step``/``env.run``/``yield``/
  ``wait_for_state``) in a campaign surface: serial per-host waits
  stretch campaign time linearly with cluster size — drive hosts
  through :class:`repro.exec.ExecTask` (sliding fanout window) or one
  ``AllOf`` barrier instead.  Intentional remnants (e.g. insert-ethers'
  sequential boot, which *binds* rack/rank to physical position) carry
  baseline entries;
* **RK208** — a span opened without ``parent=`` in instrumented
  simulation code: PR 10 made every span carry trace context
  (``span_id``/``parent_id``/``trace_id``), and the critical-path
  analyzer can only attribute time it can reach from a root.  An
  unparented span is an accidental root that silently drops its
  subtree from ``repro explain``.  Intentional roots (campaign,
  reinstall, storm, exec fanouts) and spans that parent via the
  ambient context carry baseline entries.

Three more hazards lie beyond the dynamic sanitizer (``repro
sanitize``), whose digest comparison sees a hazard only when a registry
scenario runs it and its output moves:

* **RK301** — ``random.Random()`` constructed without a seed: it draws
  from OS entropy, so every value differs run to run;
* **RK302** — a snapshot of shared mutable state (``list(self.flows)``,
  ``x.members.copy()``, …) captured before a ``yield`` and read after
  it: while the generator was suspended anyone may have mutated the
  state, across instants, not just within one tick;
* **RK303** — a ``while`` loop whose body only sleeps (``yield
  env.timeout(...)``) with no deadline or attempt bound: a wedged
  condition spins forever and the scenario hangs with no diagnosis.

The linter lints itself: ``repro lint --self`` parses each file of
``src/repro`` (including this package) once, runs every pass over that
parse, and gates the result against the committed baseline.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from .diagnostics import Diagnostic, SourceLocation, code_info
from .passes import SELF_PASSES, register_self, run_passes

__all__ = ["SelfLintContext", "analyze_self", "default_self_context"]


_WALL_TIME_FUNCS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns",
})
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})
#: module-level random functions that consume the shared global RNG
_GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "seed", "getrandbits", "gauss", "betavariate",
    "normalvariate", "expovariate", "triangular", "vonmisesvariate",
    "paretovariate", "weibullvariate",
})

#: package subdirectories whose loops are determinism-critical (RK203)
_HOT_PACKAGES = ("netsim", "installer", "exec", "load", "monitoring")
#: packages holding request paths that every node can feed (RK206; exec
#: included: a 4096-target fan-out gathers output through MsgTree and
#: per-node buffers)
_QUEUE_HOT_PACKAGES = ("load", "netsim", "exec")


@dataclass
class ParsedFile:
    path: Path       # absolute
    rel: str         # repo-relative, posix separators
    tree: ast.AST
    #: names bound to the time / datetime / random modules in this file
    time_names: set[str] = field(default_factory=set)
    datetime_names: set[str] = field(default_factory=set)
    random_names: set[str] = field(default_factory=set)
    #: direct from-imports: local name -> (module, original name)
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)

    def scan_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "time":
                        self.time_names.add(bound)
                    elif alias.name == "datetime":
                        self.datetime_names.add(bound)
                    elif alias.name == "random":
                        self.random_names.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.from_imports[bound] = (node.module, alias.name)


@dataclass
class SelfLintContext:
    """What the determinism linter scans."""

    package_root: Path                    # e.g. <repo>/src/repro
    repo_root: Path                       # paths in diagnostics are relative to this
    _files: Optional[list[ParsedFile]] = None

    @property
    def files(self) -> list[ParsedFile]:
        if self._files is None:
            parsed = []
            for path in sorted(self.package_root.rglob("*.py")):
                text = path.read_text(encoding="utf-8")
                try:
                    tree = ast.parse(text, filename=str(path))
                except SyntaxError:
                    continue  # not our job; the test suite will scream
                rel = path.relative_to(self.repo_root).as_posix()
                pf = ParsedFile(path=path, rel=rel, tree=tree)
                pf.scan_imports()
                parsed.append(pf)
            self._files = parsed
        return self._files

    def in_packages(self, pf: ParsedFile, packages: tuple[str, ...]) -> bool:
        """Does ``pf`` live under one of these top-level subpackages?"""
        rel_pkg = pf.path.relative_to(self.package_root)
        return bool(rel_pkg.parts) and rel_pkg.parts[0] in packages

    def diag(self, code: str, message: str, pf: ParsedFile,
             node: ast.AST, hint: str = "", **data) -> Diagnostic:
        return Diagnostic(
            code=code,
            severity=code_info(code).severity,
            message=message,
            location=SourceLocation(
                pf.rel, getattr(node, "lineno", 0),
                getattr(node, "col_offset", -1) + 1,
            ),
            hint=hint,
            data=data,
        )


def default_self_context() -> SelfLintContext:
    """Lint the installed ``repro`` package (src layout assumed)."""
    package_root = Path(__file__).resolve().parents[1]   # .../src/repro
    repo_root = package_root.parents[1]                  # .../
    return SelfLintContext(package_root=package_root, repo_root=repo_root)


def analyze_self(ctx: SelfLintContext, select=None, ignore=None):
    """Run every determinism pass; deterministic, sorted diagnostics."""
    return run_passes(SELF_PASSES, ctx, select=select, ignore=ignore)


# -- RK201: wall-clock reads -------------------------------------------------------


@register_self("RK201")
def check_wall_clock(ctx: SelfLintContext):
    for pf in ctx.files:
        # An aliased reference (``perf = time.perf_counter``) reads the
        # wall clock at every later call without ever matching the Call
        # pattern below — flag the alias itself.  Attribute nodes that
        # ARE the func of a call are skipped here (the Call branch owns
        # them), so nothing is reported twice.
        call_funcs = {
            id(node.func) for node in ast.walk(pf.tree)
            if isinstance(node, ast.Call)
        }
        for node in ast.walk(pf.tree):
            if (isinstance(node, ast.Attribute)
                    and id(node) not in call_funcs
                    and isinstance(node.value, ast.Name)
                    and node.value.id in pf.time_names
                    and node.attr in _WALL_TIME_FUNCS):
                yield ctx.diag(
                    "RK201",
                    f"wall-clock function time.{node.attr} aliased in "
                    f"simulation code",
                    pf, node,
                    hint="read env.now (simulated time) instead; binding "
                         "the clock to a local hides every later read "
                         "from this lint",
                    call=f"time.{node.attr}",
                )
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            label = None
            if isinstance(func, ast.Attribute):
                base = func.value
                if (isinstance(base, ast.Name)
                        and base.id in pf.time_names
                        and func.attr in _WALL_TIME_FUNCS):
                    label = f"time.{func.attr}()"
                elif (func.attr in _DATETIME_FUNCS
                      and _is_datetime_base(base, pf)):
                    label = f"datetime.{func.attr}()"
            elif isinstance(func, ast.Name):
                origin = pf.from_imports.get(func.id)
                if origin == ("time", "time") or (
                    origin is not None
                    and origin[0] == "time"
                    and origin[1] in _WALL_TIME_FUNCS
                ):
                    label = f"time.{origin[1]}()"
            if label is not None:
                yield ctx.diag(
                    "RK201",
                    f"wall-clock read {label} in simulation code",
                    pf, node,
                    hint="read env.now (simulated time) instead; wall time "
                         "breaks byte-identical replay",
                    call=label,
                )


def _is_datetime_base(base: ast.expr, pf: ParsedFile) -> bool:
    """datetime.now() via `from datetime import datetime/date` or
    datetime.datetime.now() via `import datetime`."""
    if isinstance(base, ast.Name):
        origin = pf.from_imports.get(base.id)
        return origin is not None and origin[0] == "datetime" and \
            origin[1] in ("datetime", "date")
    if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
        return (base.value.id in pf.datetime_names
                and base.attr in ("datetime", "date"))
    return False


# -- RK202/RK301: unseeded RNGs --------------------------------------------------


def _is_unseeded_random(node: ast.Call, pf: ParsedFile) -> bool:
    """``random.Random()`` / imported ``Random()`` with no seed argument."""
    func = node.func
    named = False
    if (isinstance(func, ast.Attribute) and func.attr == "Random"
            and isinstance(func.value, ast.Name)
            and func.value.id in pf.random_names):
        named = True
    elif isinstance(func, ast.Name):
        named = pf.from_imports.get(func.id) == ("random", "Random")
    if not named or node.args:
        return False
    return not any(kw.arg in ("x", "seed") for kw in node.keywords)


@register_self("RK202", "RK301")
def check_global_random(ctx: SelfLintContext):
    """Every RNG a simulation draws from must replay from a seed.

    Module-level ``random.*`` calls (RK202) share one global RNG that any
    caller can reseed or advance.  A ``random.Random()`` built with no
    seed (RK301) initialises from OS entropy: every value drawn from it
    differs run to run, so any rate, delay or ordering derived from it
    breaks byte-identical replay.
    """
    for pf in ctx.files:
        for node in ast.walk(pf.tree):
            if not isinstance(node, ast.Call):
                continue
            if _is_unseeded_random(node, pf):
                yield ctx.diag(
                    "RK301",
                    "random.Random() constructed without a seed",
                    pf, node,
                    hint="pass an explicit seed (derive it from the scenario "
                         "seed) so every draw replays byte-identically",
                )
                continue
            func = node.func
            name = None
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in pf.random_names
                    and func.attr in _GLOBAL_RANDOM_FUNCS):
                name = func.attr
            elif isinstance(func, ast.Name):
                origin = pf.from_imports.get(func.id)
                if (origin is not None and origin[0] == "random"
                        and origin[1] in _GLOBAL_RANDOM_FUNCS):
                    name = origin[1]
            if name is not None:
                yield ctx.diag(
                    "RK202",
                    f"random.{name}() uses the unseeded module-level RNG",
                    pf, node,
                    hint="construct a seeded random.Random(seed) and call "
                         "the method on it",
                    call=f"random.{name}",
                )


# -- RK203: set iteration in hot paths -------------------------------------------


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


def _scopes(tree: ast.AST) -> Iterator[ast.AST]:
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _scope_statements(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested function bodies."""
    stack = list(getattr(scope, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@register_self("RK203")
def check_set_iteration(ctx: SelfLintContext):
    """Set order varies with hash seeding and history.

    Iterating a set hands members out in that order.  Only hot packages
    are scanned: that is where order reaches floats, events and
    telemetry.
    """
    for pf in ctx.files:
        if not ctx.in_packages(pf, _HOT_PACKAGES):
            continue
        for scope in _scopes(pf.tree):
            set_names: set[str] = set()
            for node in _scope_statements(scope):
                if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            set_names.add(target.id)
                elif (isinstance(node, ast.AnnAssign)
                      and node.value is not None
                      and _is_set_expr(node.value)
                      and isinstance(node.target, ast.Name)):
                    set_names.add(node.target.id)

            def unordered(expr: ast.expr) -> bool:
                return _is_set_expr(expr) or (
                    isinstance(expr, ast.Name) and expr.id in set_names
                )

            def iter_exprs():
                for node in _scope_statements(scope):
                    if isinstance(node, (ast.For, ast.AsyncFor)):
                        yield node.iter
                    elif isinstance(node, (ast.ListComp, ast.SetComp,
                                           ast.DictComp, ast.GeneratorExp)):
                        for gen in node.generators:
                            yield gen.iter

            for it in iter_exprs():
                if unordered(it):
                    what = (it.id if isinstance(it, ast.Name)
                            else ast.unparse(it))
                    yield ctx.diag(
                        "RK203",
                        f"iteration over unordered set {what!r} in a "
                        f"hot path",
                        pf, it,
                        hint="use dict.fromkeys(...) (insertion-ordered "
                             "set) or sorted(...) when order can reach "
                             "floats, events, or telemetry",
                        expr=what,
                    )


# -- RK204: leaked telemetry spans ----------------------------------------------


@register_self("RK204")
def check_leaked_spans(ctx: SelfLintContext):
    for pf in ctx.files:
        for node in ast.walk(pf.tree):
            if (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "span"):
                yield ctx.diag(
                    "RK204",
                    "span opened and discarded: it can never be closed",
                    pf, node,
                    hint="bind it and call .end(), or use the context-"
                         "manager form: `with tracer.span(...):`",
                )


# -- RK206: unbounded queues on storm paths --------------------------------------


def _queue_call_name(node: ast.Call, pf: ParsedFile) -> Optional[str]:
    """'deque' / 'Queue' / 'SimpleQueue' when ``node`` constructs one."""
    func = node.func
    if isinstance(func, ast.Name):
        origin = pf.from_imports.get(func.id)
        if origin == ("collections", "deque"):
            return "deque"
        if origin is not None and origin[0] in ("queue", "asyncio") and \
                origin[1] in ("Queue", "SimpleQueue", "LifoQueue",
                              "PriorityQueue"):
            return origin[1]
        return None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id == "collections" and func.attr == "deque":
            return "deque"
        if func.value.id in ("queue", "asyncio") and func.attr in (
                "Queue", "SimpleQueue", "LifoQueue", "PriorityQueue"):
            return func.attr
    return None


def _queue_is_bounded(name: str, node: ast.Call) -> bool:
    if name == "SimpleQueue":
        return False  # SimpleQueue has no bound at all
    bound_kw = "maxlen" if name == "deque" else "maxsize"
    for kw in node.keywords:
        if kw.arg == bound_kw and not (
            isinstance(kw.value, ast.Constant) and kw.value.value in (None, 0)
        ):
            return True
    # deque's bound may also arrive as the second positional argument.
    if name == "deque" and len(node.args) >= 2:
        return True
    if name != "deque" and node.args:
        return not (isinstance(node.args[0], ast.Constant)
                    and node.args[0].value in (None, 0))
    return False


@register_self("RK206")
def check_unbounded_queues(ctx: SelfLintContext):
    """A buffer on a request path every node can feed must be bounded.

    A power restore sends every node's requests at once and a fan-out
    gathers a reply per target, so these buffers grow with the cluster:
    unbounded, overload turns into memory growth, not backpressure.  A
    queue whose boundedness is enforced elsewhere (e.g. an accept queue
    that is length-checked before every append) is suppressed via the
    lint baseline, which doubles as an inventory of such invariants.
    """
    for pf in ctx.files:
        if not ctx.in_packages(pf, _QUEUE_HOT_PACKAGES):
            continue
        for node in ast.walk(pf.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _queue_call_name(node, pf)
            if name is None or _queue_is_bounded(name, node):
                continue
            yield ctx.diag(
                "RK206",
                f"{name}() constructed without a bound on a request "
                f"path every node can feed",
                pf, node,
                hint="pass maxlen=/maxsize=, or add a baseline entry "
                     "naming the invariant that bounds it",
                queue=name,
            )


# -- RK207: per-host serial wait loops over cluster membership --------------------

#: modules/packages (relative to the package root) that are campaign
#: surfaces: where an administrator-visible sweep over the whole cluster
#: is driven from
_SERIAL_SURFACES = ("cli.py", "quickbuild.py", "core/tools", "faults", "load")

#: iterable names that denote cluster membership
_MEMBERSHIP_RE = re.compile(
    r"\b(nodes|machines|compute_machines|compute_nodes|targets|outlets)\b"
)

#: env methods that advance/block the simulation inside the loop body
_SERIAL_WAIT_ATTRS = frozenset({"step", "run", "wait_for_state"})


def _in_serial_surface(ctx: SelfLintContext, pf: ParsedFile) -> bool:
    rel_pkg = pf.path.relative_to(ctx.package_root).as_posix()
    return any(
        rel_pkg == surface or rel_pkg.startswith(surface + "/")
        for surface in _SERIAL_SURFACES
    )


def _body_waits_per_host(loop: ast.For) -> Optional[str]:
    """The first per-iteration simulation wait in the loop body, if any."""
    stack = list(loop.body) + list(loop.orelse)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # a nested def's waits run on its caller's schedule
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return "yield"
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SERIAL_WAIT_ATTRS):
            return node.func.attr
        stack.extend(ast.iter_child_nodes(node))
    return None


@register_self("RK207")
def check_serial_host_loops(ctx: SelfLintContext):
    """Per-host serial waits make campaign time linear in cluster size.

    A 4096-node sweep that waits for each host in turn takes 4096x one
    host's latency; the exec fabric's sliding fanout window (or a single
    ``AllOf`` barrier) takes ~max instead of ~sum.  Loops whose
    serialization is the point (insert-ethers' sequential boot binds
    rack/rank to physical position, §6.4) are suppressed via the lint
    baseline, which doubles as the inventory of intentional remnants.
    """
    for pf in ctx.files:
        if not _in_serial_surface(ctx, pf):
            continue
        for node in ast.walk(pf.tree):
            if not isinstance(node, ast.For):
                continue
            iter_text = ast.unparse(node.iter)
            if not _MEMBERSHIP_RE.search(iter_text):
                continue
            wait = _body_waits_per_host(node)
            if wait is None:
                continue
            yield ctx.diag(
                "RK207",
                f"serial per-host loop over {iter_text!r} waits on the "
                f"simulation ({wait}) once per host",
                pf, node,
                hint="drive hosts through repro.exec.ExecTask (sliding "
                     "fanout window) or one AllOf barrier; add a baseline "
                     "entry when serialization is the point",
                iterable=iter_text,
                wait=wait,
            )


# -- RK208: unparented spans in instrumented code ---------------------------------


def _is_tracer_receiver(node: ast.expr) -> bool:
    """True when ``node`` is a tracer handle: ``tracer`` / ``env.tracer``
    / ``self.tracer`` — any name or attribute chain ending in "tracer"."""
    if isinstance(node, ast.Name):
        return node.id == "tracer" or node.id.endswith("_tracer")
    if isinstance(node, ast.Attribute):
        return node.attr == "tracer" or node.attr.endswith("_tracer")
    return False


@register_self("RK208")
def check_unparented_spans(ctx: SelfLintContext):
    """Spans opened without ``parent=`` silently root their subtree.

    The critical-path analyzer walks down from a root span; a span
    created without trace context dangles as an accidental root, and
    every second under it vanishes from the attribution report (the
    exact bug the ``shoot`` span fixed: 18% of a reinstall was
    invisible).  ``parent=None`` is fine — explicitly threading a
    maybe-parent is the pattern — the lint only wants the decision made
    visibly.  Intentional roots and ambient-context parenting carry
    baseline entries, which double as the inventory of trace roots.
    """
    for pf in ctx.files:
        rel_pkg = pf.path.relative_to(ctx.package_root).as_posix()
        # The telemetry package defines the span API (and its tests of
        # record shapes); it is not an instrumentation site.
        if rel_pkg.startswith("telemetry/"):
            continue
        for node in ast.walk(pf.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in ("span", "record_span")
                    and _is_tracer_receiver(func.value)):
                continue
            if any(kw.arg == "parent" for kw in node.keywords):
                continue
            yield ctx.diag(
                "RK208",
                f"tracer.{func.attr}(...) without parent= — an accidental "
                f"trace root drops its subtree from critical-path "
                f"attribution",
                pf, node,
                hint="thread the causal parent span (parent=..., possibly "
                     "None), or add a baseline entry naming this an "
                     "intentional root",
                call=func.attr,
            )


# -- RK302: yield-straddling staleness -------------------------------------------

_SNAPSHOT_FUNCS = frozenset({
    "list", "sorted", "tuple", "dict", "set", "frozenset",
})


def _is_shared_snapshot(value: ast.expr) -> Optional[str]:
    """The snapshot expression when ``value`` copies shared mutable state.

    Recognised shapes: ``list(x.attr...)`` / ``sorted`` / ``dict`` /
    ``set`` / ``tuple`` / ``frozenset`` over an expression that reads an
    attribute, and ``x.attr.copy()``.  A copy of purely local data
    (``list(names)``) is not shared state and stays exempt.
    """
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if (isinstance(func, ast.Name) and func.id in _SNAPSHOT_FUNCS
            and value.args
            and any(isinstance(n, ast.Attribute)
                    for n in ast.walk(value.args[0]))):
        return ast.unparse(value)
    if (isinstance(func, ast.Attribute) and func.attr == "copy"
            and isinstance(func.value, ast.Attribute)):
        return ast.unparse(value)
    return None


@register_self("RK302")
def check_yield_straddle(ctx: SelfLintContext):
    """A snapshot consumed after a ``yield`` may be stale.

    A generator that snapshots shared mutable state, suspends at a
    ``yield``, and then consumes the snapshot is trusting that nobody
    mutated the underlying state while it slept — but a yield is exactly
    where every other process (and every completion callback) gets to
    run.  This is the stale-active bug class: a completion callback
    changed flow membership while a refill held a snapshot of it.
    Re-derive the snapshot after resuming, or re-validate each member
    against the live structure.
    """
    for pf in ctx.files:
        for scope in _scopes(pf.tree):
            yields = sorted(n.lineno for n in _scope_statements(scope)
                            if isinstance(n, (ast.Yield, ast.YieldFrom)))
            if not yields:
                continue
            for node in _scope_statements(scope):
                if not isinstance(node, ast.Assign):
                    continue
                snap = _is_shared_snapshot(node.value)
                if snap is None:
                    continue
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
                if not names:
                    continue
                name = names[0]
                uses = sorted(
                    n.lineno for n in _scope_statements(scope)
                    if isinstance(n, ast.Name) and n.id == name
                    and isinstance(n.ctx, ast.Load)
                )
                straddling = [
                    u for u in uses
                    if any(node.lineno < y < u for y in yields)
                ]
                if straddling:
                    yield ctx.diag(
                        "RK302",
                        f"snapshot {name!r} = {snap} is captured before a "
                        f"yield and read at line {straddling[0]} after it",
                        pf, node,
                        hint="re-derive the snapshot after the yield, or "
                             "re-check each member against the live "
                             "structure before acting on it",
                        snapshot=snap, first_stale_use=straddling[0],
                    )


# -- RK303: unbounded wait loops -------------------------------------------------

#: names that evidence a bound on a polling loop (deadline, budget, …)
_BOUND_NAME_RE = re.compile(
    r"deadline|timeout|attempt|retr|budget|remaining|until|expir|"
    r"max_|_max|tries|give_up|limit",
    re.IGNORECASE,
)


def _is_sleep_yield(stmt: ast.AST) -> bool:
    """``yield env.timeout(...)`` / ``yield env.slotted_timeout(...)``."""
    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Yield)):
        return False
    val = stmt.value.value
    return (isinstance(val, ast.Call)
            and isinstance(val.func, ast.Attribute)
            and val.func.attr in ("timeout", "slotted_timeout"))


@register_self("RK303")
def check_unbounded_wait_loops(ctx: SelfLintContext):
    """A pure sleep-poll loop with no bound can spin forever.

    The shape is ``while <condition>: yield env.timeout(t)`` (the body
    does nothing but sleep).  If the condition is wedged — the event it
    polls for was lost to a fault — the process never exits and never
    raises, so the scenario hangs with no diagnosis.  Loops whose test
    references a deadline/attempt bound, and loops that do real work per
    tick (service loops), are exempt.
    """
    for pf in ctx.files:
        for node in ast.walk(pf.tree):
            if not isinstance(node, ast.While):
                continue
            if isinstance(node.test, ast.Constant):
                continue  # `while True` service loops are not polls
            body = [s for s in node.body
                    if not (isinstance(s, ast.Expr)
                            and isinstance(s.value, ast.Constant))]
            if len(body) != 1 or not _is_sleep_yield(body[0]):
                continue
            cond_text = ast.unparse(node.test)
            if _BOUND_NAME_RE.search(cond_text):
                continue
            yield ctx.diag(
                "RK303",
                f"polling wait loop on {cond_text!r} sleeps with no "
                f"deadline or attempt bound",
                pf, node,
                hint="wait on the event itself (or AnyOf(event, "
                     "env.timeout(deadline))) so a wedged condition "
                     "fails loudly instead of spinning forever",
                condition=cond_text,
            )
