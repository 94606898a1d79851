"""Tests for the scenario CLI."""

import pathlib

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_command(capsys):
    code, out = run_cli(capsys, "build", "--nodes", "2")
    assert code == 0
    assert "integrated 2 compute nodes" in out
    assert "compute-0-1" in out


def test_reinstall_command(capsys):
    code, out = run_cli(capsys, "reinstall", "--nodes", "2")
    assert code == 0
    assert "2 concurrent reinstalls" in out
    assert "ethernet" in out


def test_table1_command_small(capsys):
    code, out = run_cli(capsys, "table1", "--max-nodes", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines[0].split() == ["nodes", "paper", "measured"]
    assert len(lines) == 3  # header + n=1 + n=2


def test_dist_command(capsys):
    code, out = run_cli(capsys, "dist", "--day", "100")
    assert code == 0
    assert "older dropped" in out
    assert "build time" in out


def test_kickstart_command(capsys):
    code, out = run_cli(capsys, "kickstart", "--appliance", "compute")
    assert code == 0
    assert "%packages" in out
    assert "mpich" in out
    assert "url --url" in out


def test_kickstart_ia64(capsys):
    code, out = run_cli(capsys, "kickstart", "--arch", "ia64")
    assert code == 0
    assert "intel-mkl" not in out


def test_graph_command(capsys):
    code, out = run_cli(capsys, "graph")
    assert code == 0
    assert out.startswith("compute:") or "compute:" in out
    assert "mpi" in out


def test_graph_dot(capsys):
    code, out = run_cli(capsys, "graph", "--dot")
    assert '"compute" -> "mpi";' in out


def test_reports_command(capsys):
    code, out = run_cli(capsys, "reports", "--nodes", "1", "--report", "hosts")
    assert code == 0
    assert "/etc/hosts" in out
    assert "compute-0-0" in out


def test_lint_command(capsys):
    code, out = run_cli(capsys, "lint")
    assert code == 0
    assert "consistent" in out


def test_lint_command_ia64(capsys):
    code, out = run_cli(capsys, "lint", "--arch", "ia64")
    assert code == 0


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["warp-drive"])


def test_trace_command_summary(capsys):
    code, out = run_cli(capsys, "trace", "--nodes", "2")
    assert code == 0
    assert "trace summary:" in out
    assert "install phases" in out
    assert "peak link utilization" in out


def test_trace_command_export_and_validate(capsys, tmp_path):
    path = tmp_path / "run.jsonl"
    code, out = run_cli(capsys, "trace", "--nodes", "2", "--out", str(path))
    assert code == 0
    assert "wrote" in out and path.exists()
    code, out = run_cli(capsys, "trace", "--validate", str(path))
    assert code == 0
    assert "valid" in out


def test_trace_validate_rejects_garbage(capsys, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "mystery"}\n', encoding="utf-8")
    code, out = run_cli(capsys, "trace", "--validate", str(path))
    assert code == 1
    assert "invalid" in out


def test_trace_command_chrome_format(capsys, tmp_path):
    path = tmp_path / "run.json"
    code, out = run_cli(capsys, "trace", "--nodes", "2",
                        "--format", "chrome", "--out", str(path))
    assert code == 0
    assert "wrote Chrome trace" in out
    import json

    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["traceEvents"]


def test_explain_command_reinstall(capsys):
    code, out = run_cli(capsys, "explain", "--nodes", "2")
    assert code == 0
    assert 'critical path: reinstall "x2"' in out
    assert "attributed to named resources:" in out
    assert "blocked-time percentiles" in out


def test_explain_command_writes_report(capsys, tmp_path):
    path = tmp_path / "report.txt"
    code, out = run_cli(capsys, "explain", "--nodes", "2",
                        "--out", str(path), "--top", "3")
    assert code == 0
    assert "wrote report to" in out
    assert "critical path:" in path.read_text(encoding="utf-8")


def test_explain_command_with_profiler(capsys, tmp_path):
    """Profiling observes, never perturbs: the 8-node report is the
    committed golden with and without --profile, and the layer rows add
    up to the total."""
    from repro.telemetry.layers import LAYERS, OTHER, UNATTRIBUTED

    golden = (pathlib.Path(__file__).parents[1] / "telemetry" / "golden"
              / "explain_reinstall_8.txt").read_bytes()
    plain, profiled = tmp_path / "plain.txt", tmp_path / "profiled.txt"
    assert run_cli(capsys, "explain", "--nodes", "8", "--out", str(plain)) \
        == (0, f"wrote report to {plain}\n")
    code, out = run_cli(capsys, "explain", "--nodes", "8", "--profile",
                        "--out", str(profiled))
    assert code == 0
    assert plain.read_bytes() == golden
    assert profiled.read_bytes() == golden
    head, table = out.split("wall-time profile", 1)
    assert head == f"wrote report to {profiled}\n"
    rows = [line.split() for line in table.splitlines()[2:]]
    assert [row[2] for row in rows] == [*LAYERS, OTHER, UNATTRIBUTED, "total"]
    *layers, (total, share, _) = rows
    assert share == "100.0%"
    assert float(total) > 0
    assert sum(float(row[0]) for row in layers) == pytest.approx(
        float(total), rel=1e-9)


def test_explain_seed_reaches_the_scenario(capsys):
    """--seed re-seeds the reinstall's cluster; 0 is its default."""
    _, default = run_cli(capsys, "explain", "--nodes", "2")
    _, seed0 = run_cli(capsys, "explain", "--nodes", "2", "--seed", "0")
    _, seed7 = run_cli(capsys, "explain", "--nodes", "2", "--seed", "7")
    assert seed0 == default
    assert seed7 != default


def test_chaos_frontend_crash_recovers_the_database(capsys):
    code, out = run_cli(capsys, "chaos", "--frontend-crash", "--nodes", "16")
    assert code == 0
    assert "recovered database state: byte-identical" in out
    assert "PASS" in out


def test_explain_command_byte_identical_across_runs(capsys):
    _, first = run_cli(capsys, "explain", "--nodes", "2")
    _, second = run_cli(capsys, "explain", "--nodes", "2")
    assert first == second


@pytest.mark.parametrize("argv", [
    ["build", "--nodes", "-2"],
    ["reinstall", "--nodes", "0"],
    ["reinstall", "--nodes", "eight"],
    ["table1", "--max-nodes", "0"],
    ["chaos", "--nodes", "0"],
    ["chaos", "--nodes", "-2"],
    ["monitor", "--nodes", "0"],
    ["storm", "--nodes", "0"],
    ["fork", "--nodes", "@compute", "--size", "0"],
    ["reports", "--nodes", "0"],
    ["trace", "--nodes", "0"],
    ["explain", "--nodes", "0"],
    ["sanitize", "race-fixture", "--nodes", "0"],
], ids=" ".join)
def test_bad_node_count_is_a_usage_error(capsys, argv):
    """An empty cluster is not a run, nor is a count that is not an
    integer: the value is refused before any."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a node count (an integer of at least 1)" in captured.err


@pytest.mark.parametrize("argv", [
    ["fork", "--nodes", "node[0-7]", "--fanout", "0"],
    ["fork", "--nodes", "node[0-7]", "--timeout", "0"],
    ["fork", "--nodes", "node[0-7]", "--timeout", "nan"],
    ["fork", "--nodes", "node[0-7]", "--retries", "-1"],
    ["fork", "--nodes", "node[0-7]", "--straggler-interval", "0"],
    ["fork", "--nodes", "node[0-7]", "--straggler-interval", "nan"],
    ["fork", "--nodes", "node[0-7]", "--straggler-factor", "nan"],
    ["fork", "--nodes", "node[0-7]", "--dead", "2"],
    ["fork", "--nodes", "node[0-7]", "--stragglers", "-1"],
    ["fork", "--nodes", "node[3-1]"],
    ["monitor", "--nodes", "2", "--interval", "0"],
    ["monitor", "--nodes", "2", "--watch", "0"],
    ["storm", "--nodes", "2", "--deadline", "-5"],
    ["storm", "--nodes", "2", "--deadline", "nan"],
    ["storm", "--nodes", "2", "--stagger", "-5"],
    ["storm", "--nodes", "2", "--stagger", "nan"],
], ids=" ".join)
def test_bad_option_value_is_a_usage_error(capsys, monkeypatch, argv):
    """A value the command's options refuse is a usage error (exit 2,
    no traceback), reported before any simulation runs."""
    import repro.exec
    import repro.faults
    import repro.load

    def no_simulation(*_args, **_kwargs):
        raise AssertionError("a simulation ran")

    monkeypatch.setattr(repro.exec, "ExecLab", no_simulation)
    monkeypatch.setattr(repro.faults, "chaos_reinstall", no_simulation)
    monkeypatch.setattr(repro.load, "run_storm", no_simulation)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip()
    assert "Traceback" not in captured.err


def test_malformed_group_nodeset_is_a_usage_error(capsys):
    """A nodeset with @groups is parsed against the lab's groups, and a
    malformed one is a usage error too, not a traceback."""
    code = main(["fork", "--nodes", "node[3-1],@compute", "--size", "8"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fork: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("value", ["8", "+8", " 8 "])
def test_node_count_is_what_int_reads(value):
    """One parse decides what a count is, for plain and campaign flags."""
    assert build_parser().parse_args(["reinstall", "--nodes", value]).nodes == 8
    assert build_parser().parse_args(["chaos", "--nodes", value]).nodes == (8, None)
    nodeset = build_parser().parse_args(["chaos", "--nodes", "node[0-7]"])
    assert nodeset.nodes == (8, "node[0-7]")
