"""The `repro sanitize` CLI: race reporting, clean scenarios, exit codes."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sanitize_race_fixture_fails_with_report(capsys):
    code, out, _ = run_cli(capsys, "sanitize", "race-fixture")
    assert code == 1
    assert "RACE: scenario 'race-fixture' diverges" in out
    assert "colliding event pair" in out
    assert "RK310" in out
    assert "Timeout" in out  # the pair is named, with labels


def test_sanitize_table1_small_is_clean(capsys):
    code, out, _ = run_cli(
        capsys, "sanitize", "reinstall", "--nodes", "2", "--no-stacks")
    assert code == 0
    assert "byte-identical across perturbation seeds" in out
    assert "0 error(s)" in out
    # both seed digests are printed and equal
    digests = [line.rsplit()[-1] for line in out.splitlines()
               if "dispatches, digest" in line]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_sanitize_custom_seeds(capsys):
    code, out, _ = run_cli(
        capsys, "sanitize", "race-fixture", "--seeds", "5", "9")
    assert code == 1
    assert "seeds 5 and 9" in out


def test_sanitize_rejects_equal_seeds(capsys):
    """One seed twice is one execution: the planted race cannot diverge,
    so the run must be refused, not reported byte-identical."""
    code, out, err = run_cli(
        capsys, "sanitize", "race-fixture", "--seeds", "5", "5")
    assert code == 2
    assert out == ""  # refused before either run
    assert "--seeds must differ" in err


def test_sanitize_unknown_scenario_errors(capsys):
    """A name outside the registry is a usage error, as for explain."""
    with pytest.raises(SystemExit) as exc:
        main(["sanitize", "not-a-scenario"])
    assert exc.value.code == 2
    assert "invalid choice: 'not-a-scenario'" in capsys.readouterr().err
