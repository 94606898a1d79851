"""Stale-suppression detection: scoping, --prune-baseline, strict gating."""

from pathlib import Path

from repro.analysis import Baseline, BaselineEntry, Diagnostic, Severity, SourceLocation
from repro.cli import main


def _diag(code, path):
    return Diagnostic(
        code=code, severity=Severity.WARNING, message="m",
        location=SourceLocation(path, 1),
    )


def test_stale_scoped_to_possible_codes():
    baseline = Baseline([
        BaselineEntry("RK206", "src/repro/netsim/http.py", "live"),
        BaselineEntry("RK203", "src/repro/gone.py", "fixed long ago"),
        BaselineEntry("RK101", "nodes/ghost.xml", "other family"),
    ])
    kept, suppressed = baseline.apply(
        [_diag("RK206", "src/repro/netsim/http.py")]
    )
    assert not kept and len(suppressed) == 1
    # RK2xx ran: the dead RK203 entry is stale.  RK101 belongs to a pass
    # family that did not run, so it is unproven — not stale.
    stale = baseline.stale({"RK203", "RK206", "RK207"})
    assert [e.code for e in stale] == ["RK203"]


def test_pruned_drops_only_the_given_entries():
    live = BaselineEntry("RK206", "a.py", "live")
    dead = BaselineEntry("RK203", "b.py", "dead")
    baseline = Baseline([live, dead])
    pruned = baseline.pruned([dead])
    assert pruned.entries == [live]
    assert "RK203" not in pruned.render()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lint_warns_on_stale_self_entry(tmp_path, capsys):
    baseline = tmp_path / "b.txt"
    baseline.write_text(
        "RK206 src/repro/netsim/http.py  # live accept queue\n"
        "RK207 src/repro/quickbuild.py  # live campaign surface\n"
        "RK206 src/repro/netsim/gone.py  # refers to deleted code\n"
    )
    code, out, err = run_cli(
        capsys, "lint", "--self", "--baseline", str(baseline))
    assert code == 0  # warnings resurface but stale alone does not fail
    assert "stale baseline entry" in err
    assert "gone.py" in err


def test_lint_strict_fails_on_stale_entry(tmp_path, capsys):
    baseline = tmp_path / "b.txt"
    baseline.write_text(
        "RK206 src/repro/netsim/http.py  # live accept queue\n"
        "RK207 src/repro/quickbuild.py  # live campaign surface\n"
        "RK203 src/repro/netsim/gone.py  # refers to deleted code\n"
    )
    code, out, err = run_cli(
        capsys, "lint", "--self", "--strict", "--baseline", str(baseline))
    assert code == 1
    assert "stale baseline entry" in err


def test_lint_prune_baseline_rewrites_file(tmp_path, capsys):
    # Start from the committed baseline (it suppresses every live
    # diagnostic in src/repro) so --strict only has the planted stale
    # entry to complain about.
    committed = (
        Path(__file__).resolve().parents[2] / "lint-baseline.txt"
    ).read_text(encoding="utf-8")
    baseline = tmp_path / "b.txt"
    baseline.write_text(
        committed + "RK203 src/repro/netsim/gone.py  # refers to deleted code\n"
    )
    code, out, err = run_cli(
        capsys, "lint", "--self", "--strict",
        "--baseline", str(baseline), "--prune-baseline")
    assert code == 0  # pruned entries no longer count as stale
    assert "pruned stale baseline entry" in err
    text = baseline.read_text()
    assert "RK206 src/repro/netsim/http.py" in text
    assert "RK207 src/repro/quickbuild.py" in text
    assert "gone.py" not in text
    # only the stale entry's line goes: comments, section headings and
    # blank lines survive byte-for-byte
    assert text == committed


def test_config_lint_does_not_condemn_self_entries(capsys):
    """The committed baseline holds RK2xx entries; a config-only run must
    not call them stale (their passes never ran)."""
    code, out, err = run_cli(capsys, "lint")
    assert code == 0
    assert "stale" not in err
