"""Command-line interface: drive the simulated Rocks cluster like the
real toolchain.

Because the cluster is simulated, the CLI is scenario-oriented: each
subcommand stands up a cluster, exercises one Rocks workflow with the
real tool implementations, and prints what the corresponding physical
commands would have shown.

    python -m repro build --nodes 8          # frontend + insert-ethers
    python -m repro reinstall --nodes 16     # the Table I experiment
    python -m repro table1                   # the full Table I sweep
    python -m repro dist                     # rocks-dist build report
    python -m repro kickstart --appliance compute --arch ia64
    python -m repro reports                  # hosts/dhcpd/PBS from the DB
    python -m repro chaos --nodes 32         # reinstall under fault injection
    python -m repro trace --nodes 8          # traced reinstall + summary
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Optional, Sequence

from . import Tracer, build_cluster
from .core.kickstart import KickstartGenerator, default_graph, default_node_files
from .rpm import Repository, community_packages, npaci_packages, stock_redhat

__all__ = ["main"]


def _cmd_build(args: argparse.Namespace) -> int:
    sim = build_cluster(n_compute=args.nodes)
    names = sim.integrate_all()
    f = sim.frontend
    print(f"frontend {f.config.name}: {len(f.machine.rpmdb)} packages, "
          f"{len(f.distributions)} distribution(s)")
    print(f"integrated {len(names)} compute nodes via insert-ethers:")
    for row in sim.db.compute_nodes():
        print(f"  {row.name:<14} {row.mac}  {row.ip}  rack={row.rack} rank={row.rank}")
    return 0


def _cmd_reinstall(args: argparse.Namespace) -> int:
    sim = build_cluster(n_compute=args.nodes)
    sim.integrate_all()
    reports = sim.reinstall_all()
    span = max(r.finished_at for r in reports) - min(r.started_at for r in reports)
    for r in sorted(reports, key=lambda r: r.host):
        print(f"  {r.host:<14} {r.method:<9} {r.minutes:6.2f} min")
    print(f"total: {len(reports)} concurrent reinstalls in {span / 60:.2f} minutes")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    paper = {1: 10.3, 2: 9.8, 4: 10.1, 8: 10.4, 16: 11.1, 32: 13.7}
    print(f"{'nodes':>5}  {'paper':>6}  {'measured':>8}")
    for n in sorted(paper):
        if n > args.max_nodes:
            continue
        sim = build_cluster(n_compute=n)
        sim.integrate_all()
        reports = sim.reinstall_all()
        span = (
            max(r.finished_at for r in reports)
            - min(r.started_at for r in reports)
        ) / 60
        print(f"{n:>5}  {paper[n]:>6.1f}  {span:>8.2f}")
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    from .core.distribution import RocksDist
    from .rpm import UpdateStream

    stock = stock_redhat(arch=args.arch)
    stream = UpdateStream(stock, updates_per_year=124)
    rd = RocksDist.standard(
        stock,
        updates=stream.updates_repository(args.day),
        contrib=community_packages(args.arch),
        local=npaci_packages(),
        arch=args.arch,
    )
    dist = rd.dist()
    report = rd.reports[-1]
    print(f"distribution {dist.name} ({dist.arch})")
    print(f"  sources:        {report.n_sources}")
    print(f"  packages:       {report.n_packages}")
    print(f"  older dropped:  {report.dropped_older}")
    print(f"  build time:     {report.build_seconds:.1f} s (simulated)")
    print(f"  tree size:      {report.tree_bytes / 1e6:.1f} MB")
    print(f"  payload behind: {dist.payload_bytes() / 1e6:.0f} MB")
    return 0


def _cmd_kickstart(args: argparse.Namespace) -> int:
    repo = Repository("rocks-dist")
    repo.add_all(stock_redhat(arch=args.arch))
    repo.add_all(community_packages(args.arch))
    repo.add_all(npaci_packages())
    gen = KickstartGenerator(default_graph(), default_node_files(), lambda d: repo)
    ks = gen.kickstart(args.appliance, args.arch, "rocks-dist")
    sys.stdout.write(ks.render())
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    graph = default_graph()
    if args.dot:
        print(graph.to_dot())
    else:
        for root in graph.roots():
            print(f"{root}: {' '.join(graph.traverse(root, args.arch))}")
    return 0


def _parse_codes(value: Optional[str]) -> Optional[list[str]]:
    if value is None:
        return None
    return [c.strip() for c in value.split(",") if c.strip()]


def _possible_codes(passes, select, ignore) -> set[str]:
    """Codes the given passes could emit after select/ignore filtering."""
    codes = {code for p in passes for code in p.codes}
    if select is not None:
        codes = {c for c in codes if any(c.startswith(p) for p in select)}
    if ignore is not None:
        codes = {c for c in codes if not any(c.startswith(p) for p in ignore)}
    return codes


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import (
        CONFIG_PASSES,
        SELF_PASSES,
        Baseline,
        ConfigContext,
        analyze_config,
        analyze_self,
        default_self_context,
        render_json,
        render_text,
    )

    select = _parse_codes(args.select)
    ignore = _parse_codes(args.ignore)

    if args.self:
        ctx = default_self_context()
        diagnostics = analyze_self(ctx, select=select, ignore=ignore)
        ran_passes = SELF_PASSES
        default_baseline = ctx.repo_root / "lint-baseline.txt"
    else:
        arches = tuple(a.strip() for a in args.arch.split(",") if a.strip())
        sources = [("stock-redhat", stock_redhat(arch=arches[0]))]
        for arch in arches[1:]:
            sources.append((f"stock-redhat-{arch}", stock_redhat(arch=arch)))
        for arch in arches:
            sources.append((f"community-{arch}", community_packages(arch)))
        sources.append(("npaci", npaci_packages()))
        repo = Repository("rocks-dist")
        for _, src in sources:
            repo.add_all(src)
        ctx = ConfigContext(
            graph=default_graph(),
            node_files=default_node_files(),
            dist_name="rocks-dist",
            dist_resolver=lambda d: repo,
            arches=arches,
            sources=sources,
        )
        diagnostics = analyze_config(ctx, select=select, ignore=ignore)
        ran_passes = CONFIG_PASSES
        default_baseline = Path("lint-baseline.txt")

    baseline_path = args.baseline or default_baseline
    if args.no_baseline:
        baseline = Baseline()
    else:
        baseline = Baseline.from_file(baseline_path)
    diagnostics, suppressed = baseline.apply(diagnostics)

    # Baseline hygiene: an entry this run could have re-proven but did
    # not is dead weight hiding a future regression at the same spot.
    stale = baseline.stale(_possible_codes(ran_passes, select, ignore))
    if stale and args.prune_baseline:
        with open(baseline_path, "w", encoding="utf-8") as fh:
            fh.write(baseline.pruned(stale).render())
        for entry in stale:
            print(f"lint: pruned stale baseline entry: {entry.render()}",
                  file=sys.stderr)
        stale = []
    for entry in stale:
        print(f"lint: warning: stale baseline entry (suppresses "
              f"nothing): {entry.render()}", file=sys.stderr)

    if args.format == "json":
        sys.stdout.write(render_json(diagnostics, suppressed=len(suppressed)))
    else:
        if not diagnostics:
            print(
                "lint: src/repro is consistent with the determinism rules"
                if args.self
                else "lint: XML infrastructure is consistent with the "
                     "distribution"
            )
        sys.stdout.write(render_text(diagnostics, suppressed=len(suppressed)))
    errors = sum(1 for d in diagnostics if d.severity.value == "error")
    failing = len(diagnostics) if args.strict else errors
    if args.strict and stale:
        return 1
    return 1 if failing else 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from .analysis import Baseline, default_self_context, render_text
    from .analysis.sanitizer import diagnose_divergence, run_scenario

    seeds = args.seeds
    if seeds[0] == seeds[1]:
        print(f"sanitize: --seeds must differ (got {seeds[0]} twice): one "
              f"perturbation seed is one execution, so nothing can diverge",
              file=sys.stderr)
        return 2
    runs = []
    for seed in seeds:
        run = run_scenario(
            args.scenario, seed,
            nodes=args.nodes,
            record_stacks=not args.no_stacks,
        )
        print(f"sanitize: scenario {run.scenario!r} seed {seed}: "
              f"{len(run.dispatch_log)} dispatches, digest {run.digest}")
        runs.append(run)

    # Trap findings are per-run but point at source sites; merge and dedup.
    merged = {}
    for run in runs:
        for diag in run.diagnostics:
            merged.setdefault(
                (diag.code, diag.location.file, diag.location.line,
                 diag.message),
                diag,
            )
    diagnostics = sorted(merged.values(), key=lambda d: d.sort_key)

    report = diagnose_divergence(runs[0], runs[1])
    if report is not None:
        diagnostics.append(report.to_diagnostic())
        diagnostics.sort(key=lambda d: d.sort_key)

    if args.no_baseline:
        baseline = Baseline()
    else:
        default_baseline = default_self_context().repo_root / "lint-baseline.txt"
        baseline = Baseline.from_file(args.baseline or default_baseline)
    diagnostics, suppressed = baseline.apply(diagnostics)

    if report is not None:
        sys.stdout.write(report.render())
    else:
        print(f"sanitize: scenario {args.scenario!r} is byte-identical "
              f"across perturbation seeds {seeds[0]} and {seeds[1]}")
    sys.stdout.write(render_text(diagnostics, suppressed=len(suppressed)))
    errors = sum(1 for d in diagnostics if d.severity.value == "error")
    return 1 if (report is not None or errors) else 0


def _cmd_reports(args: argparse.Namespace) -> int:
    from .core.database import report_dhcpd, report_hosts, report_pbs_nodes

    sim = build_cluster(n_compute=args.nodes)
    sim.integrate_all()
    which = {
        "hosts": report_hosts,
        "dhcpd": report_dhcpd,
        "pbsnodes": report_pbs_nodes,
    }
    for name, fn in which.items():
        if args.report in ("all", name):
            print(f"# ---- {name} " + "-" * 40)
            print(fn(sim.db))
    return 0


def _campaign_nodes(value: str) -> tuple[int, Optional[str]]:
    """Parse a ``--nodes`` value: a count, or a nodeset of targets.

    ``32`` keeps the historical behaviour (a 32-node cluster, campaign
    over all of it); ``node[0-4095]`` or ``compute-0-[0-15],@compute``
    sizes the cluster to cover the set and targets exactly those nodes.
    Returns ``(n_nodes, targets-or-None)``.
    """
    if value.isdigit():
        return int(value), None
    from .faults import campaign_size

    return campaign_size(value), value


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import chaos_reinstall

    plan = args.plan
    resilience = args.resilience
    if args.frontend_crash:
        # The resilience-smoke scenario: crash the frontend mid-wave and
        # require the hardened stack to recover it.
        plan = "frontend-crash"
        resilience = True
    n_nodes, targets = _campaign_nodes(args.nodes)
    result = chaos_reinstall(
        n_nodes=n_nodes, plan=plan, seed=args.seed, resilience=resilience,
        targets=targets,
    )
    print(result.render())
    ok = result.completion_rate >= args.min_completion
    if args.frontend_crash:
        frontend = result.resilience.frontend
        recovered = (
            result.resilience.verify_recovery()
            and frontend.recovered_snapshot is not None
            and bool(result.injector.snapshots)
            and frontend.recovered_snapshot == result.injector.snapshots[0]
        )
        print(
            "\nrecovered database state: "
            + ("byte-identical" if recovered else "MISMATCH")
        )
        ok = ok and recovered
    print(
        f"\ncompletion {100 * result.completion_rate:.0f}% "
        f"(threshold {100 * args.min_completion:.0f}%): "
        + ("PASS" if ok else "FAIL")
    )
    return 0 if ok else 1


def _cmd_storm(args: argparse.Namespace) -> int:
    from .load import StormOptions, run_storm

    options = StormOptions(
        n_nodes=args.nodes,
        seed=args.seed,
        autoscale=not args.no_autoscale,
        dhcp_stagger=args.stagger,
        deadline=args.deadline,
    )
    result = run_storm(options)
    print(result.render())
    if result.autoscaler is not None and result.scale_events:
        print()
        print(result.autoscaler.render_events())
    if args.slo:
        with open(args.slo, "w", encoding="utf-8") as fh:
            fh.write(result.slo_json())
        print(f"\nwrote SLO report to {args.slo}")
    return 0 if result.stable else 1


def _cmd_monitor(args: argparse.Namespace) -> int:
    from .faults import chaos_reinstall
    from .monitoring import MonitoringOptions

    options = MonitoringOptions(interval=args.interval)

    def on_stack(stack) -> None:
        if args.watch is not None:
            stack.start_watch(period=args.watch)

    n_nodes, targets = _campaign_nodes(args.nodes)
    result = chaos_reinstall(
        n_nodes=n_nodes,
        plan=args.plan,
        seed=args.seed,
        resilience=args.resilience,
        monitoring=options,
        on_monitoring=on_stack,
        targets=targets,
    )
    stack = result.monitoring
    if args.xml:
        print(stack.render_xml())
    else:
        print(stack.render_top())
    if args.alerts:
        engine = stack.engine
        print()
        if engine.alerts:
            print(f"alerts fired ({len(engine.alerts)}):")
            for alert in engine.alerts:
                print(f"  {alert.render()}")
        else:
            print("no alerts fired")
        if engine.cleared:
            print(f"alerts cleared: {len(engine.cleared)}")
    if args.export:
        nbytes = stack.write(args.export)
        print(f"\nwrote {nbytes} bytes of RRD export to {args.export}")
    print(
        f"\ncampaign: {result.n_nodes} nodes, "
        f"{100 * result.completion_rate:.0f}% installed in "
        f"{result.minutes:.2f} min under plan {result.plan.name!r}"
    )
    return 0


def _cmd_fork(args: argparse.Namespace) -> int:
    from .exec import ExecLab, ExecOptions, LabOptions, NodeSet

    targets = args.nodes
    if "@" in targets:
        if args.size is None:
            print("fork: --size is required when --nodes uses @groups",
                  file=sys.stderr)
            return 2
        size = args.size
    else:
        # size the lab from the positional node[...] target set itself
        indices = []
        for name in NodeSet(targets):
            if not (name.startswith("node") and name[4:].isdigit()):
                print(f"fork: lab targets must look like node<i>, got {name!r}",
                      file=sys.stderr)
                return 2
            indices.append(int(name[4:]))
        size = max(max(indices) + 1, args.size or 0)
    lab = ExecLab(LabOptions(
        nodes=size,
        seed=args.seed,
        dead_fraction=args.dead,
        straggler_fraction=args.stragglers,
    ))
    report = lab.run(targets, exec_options=ExecOptions(
        fanout=args.fanout,
        command_timeout=args.timeout,
        max_retries=args.retries,
        seed=args.seed,
        straggler_interval=args.straggler_interval,
        straggler_factor=args.straggler_factor,
    ))
    print(report.render())
    return 0


def _traced(args: argparse.Namespace) -> Tracer:
    """Run the scenario ``args`` names under a fresh tracer; returns it."""
    from .scenarios import SCENARIOS

    tracer = Tracer()
    knobs = {"plan": args.plan} if args.scenario == "chaos" else {}
    SCENARIOS[args.scenario](args.nodes, args.seed, tracer, **knobs)
    return tracer


def _cmd_trace(args: argparse.Namespace) -> int:
    from .telemetry import (
        render_summary,
        summarize,
        to_chrome_json,
        to_jsonl,
        validate_trace_text,
        write_jsonl,
    )

    if args.validate is not None:
        with open(args.validate, encoding="utf-8") as fh:
            problems = validate_trace_text(fh.read())
        if problems:
            for p in problems:
                print(f"invalid: {p}")
            return 1
        print(f"{args.validate}: valid {TRACE_SUMMARY_NOTE}")
        return 0

    tracer = _traced(args)
    if args.format == "chrome":
        # chrome://tracing / Perfetto trace_event JSON: one track per
        # host/service, flow arrows for cross-node causality.
        text = to_chrome_json(tracer)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote Chrome trace to {args.out} "
                  f"(open in chrome://tracing or ui.perfetto.dev)")
        else:
            print(text, end="")
        return 0
    if args.out:
        n = write_jsonl(tracer, args.out)
        print(f"wrote {n} records to {args.out}")
    problems = validate_trace_text(to_jsonl(tracer))
    if problems:
        for p in problems:
            print(f"invalid: {p}")
        return 1
    if args.summary or not args.out:
        print(render_summary(summarize(tracer)))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Why was this run slow?  Critical-path attribution for a scenario.

    ``--profile`` runs the command's work -- the scenario, the DAG and
    the report -- under ``cProfile`` and then prints its wall time per
    layer.
    """
    from .telemetry import dag_from_tracer, pick_root, render_report

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    with profiler or contextlib.nullcontext():
        tracer = _traced(args)
        dag = dag_from_tracer(tracer)
        root = pick_root(dag)
        if root is None:
            print("no spans recorded — nothing to explain")
            return 1
        report = render_report(dag, root, top=args.top)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report + "\n")
            print(f"wrote report to {args.out}")
        else:
            print(report)
    if profiler is not None:
        import pstats

        from .telemetry import layers

        package = os.path.dirname(os.path.abspath(__file__))
        print(layers.render(layers.rollup(pstats.Stats(profiler).stats,
                                          package)))
    return 0


TRACE_SUMMARY_NOTE = "repro-trace JSONL"


def _scenario_arguments(p, name: str, traced: bool = True, **kwargs) -> None:
    """A registry scenario and its size; if traced, its seed and plan."""
    from .faults import PLANS
    from .scenarios import SCENARIOS

    p.add_argument(name, default="reinstall", choices=sorted(SCENARIOS),
                   **kwargs)
    p.add_argument("--nodes", type=int, help="default: the scenario's own")
    if traced:
        p.add_argument("--seed", type=int, help="default: the scenario's own")
        p.add_argument("--plan", default="default", choices=sorted(PLANS),
                       help="fault plan for the chaos scenario")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NPACI Rocks reproduction: simulated cluster scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="frontend + insert-ethers integration")
    p.add_argument("--nodes", type=int, default=4)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("reinstall", help="concurrent reinstall (Table I point)")
    p.add_argument("--nodes", type=int, default=8)
    p.set_defaults(fn=_cmd_reinstall)

    p = sub.add_parser("table1", help="the full Table I sweep")
    p.add_argument("--max-nodes", type=int, default=32)
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("dist", help="rocks-dist build report")
    p.add_argument("--arch", default="i386", choices=["i386", "athlon", "ia64"])
    p.add_argument("--day", type=int, default=360,
                   help="include vendor updates released by this day")
    p.set_defaults(fn=_cmd_dist)

    p = sub.add_parser("kickstart", help="render a generated kickstart file")
    p.add_argument("--appliance", default="compute",
                   choices=["compute", "frontend", "nfs", "web"])
    p.add_argument("--arch", default="i386", choices=["i386", "athlon", "ia64"])
    p.set_defaults(fn=_cmd_kickstart)

    p = sub.add_parser("graph", help="show the appliance graph")
    p.add_argument("--arch", default="i386")
    p.add_argument("--dot", action="store_true", help="GraphViz output (Fig. 4)")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser(
        "lint",
        help="typed static analysis: XML config graph, or --self for the "
             "determinism linter over repro's own source",
    )
    p.add_argument("--arch", default="i386",
                   help="supported architecture(s), comma-separated "
                        "(i386, athlon, ia64)")
    p.add_argument("--format", default="text", choices=["text", "json"],
                   help="diagnostic output format")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on warnings too, not just errors")
    p.add_argument("--select", default=None, metavar="CODES",
                   help="only run/report these code prefixes (e.g. RK1,RK203)")
    p.add_argument("--ignore", default=None, metavar="CODES",
                   help="drop these code prefixes")
    p.add_argument("--self", action="store_true",
                   help="run the AST determinism linter over src/repro "
                        "instead of the config analyzers")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="suppression baseline file "
                        "(default: lint-baseline.txt)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore any suppression baseline")
    p.add_argument("--prune-baseline", action="store_true",
                   help="rewrite the baseline file without stale entries "
                        "(entries that no longer suppress anything)")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "sanitize",
        help="schedule-perturbation race detector: run a scenario twice "
             "under different same-tick tie-break seeds and compare "
             "digests (divergence proves a scheduling race)",
    )
    _scenario_arguments(p, "scenario", traced=False, nargs="?")
    p.add_argument("--seeds", type=int, nargs=2, default=[1, 2],
                   metavar=("A", "B"),
                   help="the two perturbation seeds to compare "
                        "(must differ)")
    p.add_argument("--no-stacks", action="store_true",
                   help="skip per-event scheduling-stack capture (faster; "
                        "race reports lose their stacks)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="suppression baseline file "
                        "(default: lint-baseline.txt)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore any suppression baseline")
    p.set_defaults(fn=_cmd_sanitize)

    p = sub.add_parser(
        "chaos", help="reinstall campaign under a fault-injection plan"
    )
    p.add_argument("--nodes", default="32",
                   help="node count, or a nodeset of campaign targets "
                        "(node[0-4095], compute-0-[0-15], @compute)")
    from .faults import PLANS

    p.add_argument("--plan", default="default", choices=sorted(PLANS))
    p.add_argument("--seed", type=int, default=None,
                   help="re-seed the plan (default: the plan's own seed)")
    p.add_argument("--min-completion", type=float, default=0.9,
                   help="exit nonzero below this installed fraction")
    p.add_argument("--resilience", action="store_true",
                   help="harden the frontend (supervisor+journal+breaker)")
    p.add_argument("--frontend-crash", action="store_true",
                   help="run the frontend-crash recovery scenario: implies "
                        "--plan frontend-crash --resilience and verifies the "
                        "recovered database is byte-identical")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "storm",
        help="whole-site power-restore install storm: admission control, "
             "circuit breakers, and gauge-driven autoscaling under the "
             "thundering herd; exits nonzero if the cluster never stabilizes",
    )
    p.add_argument("--nodes", type=int, default=32)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--no-autoscale", action="store_true",
                   help="run the single-frontend baseline (expect it to "
                        "struggle at scale)")
    p.add_argument("--stagger", type=float, default=45.0,
                   help="max seeded per-node DHCP stagger after restore (s)")
    p.add_argument("--deadline", type=float, default=4.0 * 3600.0,
                   help="simulated seconds after restore before giving up")
    p.add_argument("--slo", metavar="PATH", default=None,
                   help="write the canonical SLO report JSON to this path")
    p.set_defaults(fn=_cmd_storm)

    p = sub.add_parser(
        "monitor",
        help="reinstall campaign observed by the gmond/gmetad monitoring "
             "stack: cluster-top, alerts, RRD export, Ganglia XML",
    )
    p.add_argument("--nodes", default="32",
                   help="node count, or a nodeset of campaign targets "
                        "(node[0-4095], compute-0-[0-15], @compute)")
    from .faults import PLANS as _mon_plans

    p.add_argument("--plan", default="none", choices=sorted(_mon_plans),
                   help="fault plan to run the campaign under")
    p.add_argument("--seed", type=int, default=None,
                   help="re-seed the plan (default: the plan's own seed)")
    p.add_argument("--interval", type=float, default=15.0,
                   help="gmond sampling interval in simulated seconds")
    p.add_argument("--watch", type=float, nargs="?", const=120.0, default=None,
                   metavar="PERIOD",
                   help="print cluster-top every PERIOD simulated seconds "
                        "during the campaign (default 120)")
    p.add_argument("--export", metavar="PATH", default=None,
                   help="write the round-robin store + alerts as canonical "
                        "JSON to this path")
    p.add_argument("--alerts", action="store_true",
                   help="print every alert the engine fired")
    p.add_argument("--xml", action="store_true",
                   help="print the Ganglia-style XML dump instead of "
                        "cluster-top")
    p.add_argument("--resilience", action="store_true",
                   help="harden the frontend (supervisor+journal+breaker)")
    p.set_defaults(fn=_cmd_monitor)

    p = sub.add_parser(
        "fork",
        help="fault-tolerant cluster-fork over a nodeset: sliding fanout "
             "window, timeouts/retries, typed dead-node results, gathered "
             "MsgTree report (byte-identical for the same seed)",
    )
    p.add_argument("--nodes", default="node[0-511]",
                   help="nodeset of targets, e.g. node[0-4095] or "
                        "@cabinet0 (default node[0-511])")
    p.add_argument("--size", type=int, default=None,
                   help="lab cluster size; required when --nodes uses "
                        "@groups, otherwise inferred from the nodeset")
    p.add_argument("--fanout", type=int, default=64,
                   help="sliding-window width (concurrent nodes)")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="per-attempt command deadline in simulated seconds")
    p.add_argument("--retries", type=int, default=2,
                   help="extra attempts after the first")
    p.add_argument("--dead", type=float, default=0.0,
                   help="fraction of nodes dead (half dark, half killed "
                        "by the PDU mid-command)")
    p.add_argument("--stragglers", type=float, default=0.0,
                   help="fraction of nodes running 10x slow")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--straggler-interval", type=float, default=15.0,
                   help="straggler monitor period (simulated seconds)")
    p.add_argument("--straggler-factor", type=float, default=3.0,
                   help="flag nodes slower than factor x the rolling "
                        "completion percentile")
    p.set_defaults(fn=_cmd_fork)

    p = sub.add_parser(
        "trace", help="run a scenario with telemetry; dump or summarize the trace"
    )
    _scenario_arguments(p, "--scenario")
    p.add_argument("--format", default="jsonl", choices=["jsonl", "chrome"],
                   help="output format: repro-trace JSONL (default) or "
                        "Chrome trace_event JSON for chrome://tracing / "
                        "Perfetto")
    p.add_argument("--out", default=None,
                   help="write the trace to this path")
    p.add_argument("--summary", action="store_true",
                   help="print the aggregated summary (default when no --out)")
    p.add_argument("--validate", metavar="PATH", default=None,
                   help="validate an existing JSONL trace file and exit")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "explain",
        help="why was this run slow?  trace a scenario, reconstruct the "
             "span DAG, and attribute the critical path to named "
             "resources (byte-identical for a fixed seed)",
    )
    _scenario_arguments(p, "scenario", nargs="?")
    p.add_argument("--top", type=int, default=None, metavar="N",
                   help="show only the N biggest resources")
    p.add_argument("--out", default=None,
                   help="write the report to this path instead of stdout")
    p.add_argument("--profile", action="store_true",
                   help="also run the command under cProfile and print "
                        "its wall time per layer (diagnostic; not "
                        "byte-stable)")
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser("reports", help="database-derived config files (§6.4)")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--report", default="all",
                   choices=["all", "hosts", "dhcpd", "pbsnodes"])
    p.set_defaults(fn=_cmd_reports)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
