"""The diagnostics core: model, registry, renderers, baseline."""

import json

import pytest

from repro.analysis import (
    CODES,
    Baseline,
    BaselineEntry,
    Diagnostic,
    JSON_SCHEMA_VERSION,
    Severity,
    SourceLocation,
    code_info,
    filter_codes,
    render_json,
    render_text,
    summarize,
)


def make(code="RK101", sev=Severity.ERROR, message="boom",
         file="graph/default.xml", line=0, **kw):
    return Diagnostic(code=code, severity=sev, message=message,
                      location=SourceLocation(file, line), **kw)


# -- model -------------------------------------------------------------------


def test_every_code_has_registry_entry():
    for code, info in CODES.items():
        assert info.code == code
        assert info.title
        assert isinstance(info.severity, Severity)


def test_code_families():
    config = [c for c in CODES if c.startswith("RK1")]
    determinism = [c for c in CODES if c.startswith("RK2")]
    assert len(config) >= 8
    assert len(determinism) == 7


def test_code_info_unknown_raises():
    with pytest.raises(ValueError):
        code_info("RK999")


def test_sort_key_orders_by_location_then_code():
    a = make(file="a.xml", code="RK105")
    b = make(file="b.xml", code="RK101")
    c = make(file="a.xml", code="RK101")
    assert sorted([a, b, c], key=lambda d: d.sort_key) == [c, a, b]


def test_render_includes_arch_tag():
    d = make(arch="ia64")
    assert "[ia64]" in d.render()
    assert "RK101 error" in d.render()


def test_location_str_forms():
    assert str(SourceLocation("f.py")) == "f.py"
    assert str(SourceLocation("f.py", 10)) == "f.py:10"
    assert str(SourceLocation("f.py", 10, 3)) == "f.py:10:3"


# -- filtering ----------------------------------------------------------------


def test_filter_codes_select_prefix():
    diags = [make(code="RK101"), make(code="RK203", sev=Severity.WARNING)]
    assert [d.code for d in filter_codes(diags, select=["RK1"])] == ["RK101"]
    assert [d.code for d in filter_codes(diags, ignore=["RK2"])] == ["RK101"]
    assert [d.code for d in filter_codes(diags, select=["RK101", "RK203"])
            ] == ["RK101", "RK203"]


# -- renderers ----------------------------------------------------------------


def test_render_text_lists_hints_and_summary():
    d = make(hint="remove the edge")
    text = render_text([d])
    assert "graph/default.xml: RK101 error: boom" in text
    assert "hint: remove the edge" in text
    assert "1 error(s), 0 warning(s), 0 info" in text


def test_render_text_reports_suppressed_count():
    assert "2 suppressed by baseline" in render_text([], suppressed=2)


def test_render_json_schema_fields():
    doc = json.loads(render_json([make(arch="ia64", data={"z": 1, "a": 2})]))
    assert doc["schema"] == JSON_SCHEMA_VERSION
    assert doc["summary"] == {"error": 1, "warning": 0, "info": 0}
    (entry,) = doc["diagnostics"]
    assert set(entry) == {
        "code", "severity", "message", "file", "line", "column",
        "hint", "arch", "data",
    }
    assert entry["arch"] == "ia64"


def test_render_json_byte_identical_across_runs():
    diags = [make(), make(code="RK203", sev=Severity.WARNING, file="x.py")]
    assert render_json(diags) == render_json(list(diags))


def test_summarize_counts():
    counts = summarize([make(), make(sev=Severity.WARNING), make()])
    assert counts == {"error": 2, "warning": 1, "info": 0}


# -- baseline -----------------------------------------------------------------


BASELINE_TEXT = """
# a comment
RK203 src/repro/netsim/flows.py  # order-independent fill
RK105 nodes/mpi.xml
"""


def test_baseline_parses_entries_and_justifications():
    b = Baseline.from_text(BASELINE_TEXT)
    assert len(b) == 2
    assert b.entries[0] == BaselineEntry(
        "RK203", "src/repro/netsim/flows.py", "order-independent fill"
    )
    assert b.unjustified() == [b.entries[1]]


def test_baseline_rejects_malformed_lines():
    with pytest.raises(ValueError):
        Baseline.from_text("RK203")


def test_baseline_apply_splits_and_tracks_usage():
    b = Baseline.from_text(BASELINE_TEXT)
    hit = make(code="RK203", sev=Severity.WARNING,
               file="src/repro/netsim/flows.py", line=12)
    miss = make(code="RK203", sev=Severity.WARNING, file="src/repro/other.py")
    kept, suppressed = b.apply([hit, miss])
    assert kept == [miss]
    assert suppressed == [hit]
    assert b.used == [b.entries[0]]


def test_baseline_suffix_matching():
    entry = BaselineEntry("RK101", "netsim/flows.py")
    assert entry.matches(make(code="RK101", file="src/repro/netsim/flows.py"))
    assert not entry.matches(make(code="RK101", file="src/repro/netsim/notflows.py"))


def test_baseline_missing_file_is_empty(tmp_path):
    assert len(Baseline.from_file(tmp_path / "nope.txt")) == 0


def test_baseline_round_trip(tmp_path):
    b = Baseline.from_text(BASELINE_TEXT)
    path = tmp_path / "baseline.txt"
    path.write_text(b.render())
    again = Baseline.from_file(path)
    assert again.entries == b.entries


def test_committed_baseline_is_loadable_and_justified(src_repro_lint):
    ctx, _diags = src_repro_lint
    b = Baseline.from_file(ctx.repo_root / "lint-baseline.txt")
    assert b.unjustified() == []
