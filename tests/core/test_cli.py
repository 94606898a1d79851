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


def test_explain_command_byte_identical_across_runs(capsys):
    _, first = run_cli(capsys, "explain", "--nodes", "2")
    _, second = run_cli(capsys, "explain", "--nodes", "2")
    assert first == second
