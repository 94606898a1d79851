"""The scenario registry against its committed digest manifest.

``golden/manifest.json`` maps ``"<name> <nodes> <seed>"`` to the sha256
of that scenario run's canonical text, with one row per registry entry
at its defaults.  When a change to a scenario's output is intended,
re-record its row with the digest the failing test prints.

``golden/traces.json`` maps each scenario name to the sha256 of its
``trace --scenario NAME --nodes 2`` JSONL export, counters included;
re-record a row the same way.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.scenarios import SCENARIOS

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = pathlib.Path(__file__).parent / "golden"
ROWS = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
TRACES = json.loads((GOLDEN / "traces.json").read_text(encoding="utf-8"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: prints {row: digest} for the manifest rows read from stdin
_ROW_DIGESTS = """
import hashlib, json, sys
from repro.scenarios import SCENARIOS
digests = {}
for row in json.load(sys.stdin):
    name, nodes, seed = row.split()
    text = SCENARIOS[name].run(int(nodes), int(seed), None)
    digests[row] = hashlib.sha256(text.encode("utf-8")).hexdigest()
print(json.dumps(digests))
"""


@pytest.fixture(scope="module")
def row_digests():
    """Every row's digest from two fresh interpreters pinned to hash seeds
    0 and 1.  A digest that depends on the order of a set of strings
    will likely differ under one of them, and every run draws the same
    two seeds.
    """
    by_seed = {}
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _ROW_DIGESTS],
            input=json.dumps(sorted(ROWS)),
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        by_seed[hash_seed] = json.loads(proc.stdout)
    return by_seed


@pytest.mark.parametrize("row", sorted(ROWS))
def test_manifest_row_reproduces(row, row_digests):
    for hash_seed, digests in row_digests.items():
        digest = digests[row]
        assert digest == ROWS[row], (
            f'manifest row "{row}" is now "{digest}" under '
            f'PYTHONHASHSEED={hash_seed}')


def test_manifest_has_a_default_row_per_scenario():
    defaults = {name for name, s in SCENARIOS.items()
                if f"{name} {s.nodes} {s.seed}" in ROWS}
    assert defaults == {row.split()[0] for row in ROWS} == set(SCENARIOS)


@pytest.mark.parametrize("verb", ["trace", "explain", "sanitize"])
def test_verbs_offer_exactly_the_registry(verb):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    scenario = next(a for a in sub.choices[verb]._actions
                    if a.dest == "scenario")
    assert scenario.choices == sorted(SCENARIOS)
    assert scenario.default == "reinstall"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_exports_a_valid_trace_for_every_scenario(name, tmp_path,
                                                        capsys):
    path = tmp_path / f"{name}.jsonl"
    assert main(["trace", "--scenario", name, "--nodes", "2",
                 "--out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == TRACES[name], f'trace row "{name}" is now "{digest}"'
    assert main(["trace", "--validate", str(path)]) == 0
    assert "valid" in capsys.readouterr().out


def test_fork_cli_reproduces_its_manifest_row(capsys):
    """The ``fork`` verb's seeded 512-node report is the ``fork`` row."""
    assert main(["fork", "--nodes", "node[0-511]", "--fanout", "64",
                 "--dead", "0.05", "--stragglers", "0.02",
                 "--seed", "42"]) == 0
    assert sha256(capsys.readouterr().out) == ROWS["fork 512 42"]


def test_storm_slo_cli_reproduces_its_manifest_row(tmp_path, capsys):
    """``storm --slo`` writes the ``storm`` row's text."""
    path = tmp_path / "slo.json"
    assert main(["storm", "--nodes", "12", "--slo", str(path)]) == 0
    capsys.readouterr()
    assert sha256(path.read_text(encoding="utf-8")) == ROWS["storm 12 42"]
