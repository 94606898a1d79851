"""Every field of an option class is set by some call outside the tests.

A field that no CLI flag, registry scenario, bench, perfbench workload or
example sets has one value in the product: it belongs in a module
constant next to the code that reads it, not in a class of knobs.  The
check reads calls by the class's own name, so a call through an alias
(perfbench's ``self.options(...)``) is not seen; each field such a call
sets is set by a direct call too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src/repro", "benchmarks", "perfbench", "examples")
SUFFIXES = ("Options", "Policy", "Config")
EXEMPT = {
    # Deployment settings (names, addresses, the root password), which
    # stay configurable with one value in use.
    "FrontendConfig",
    # §3.3's kernel build inputs: the description of one kernel, read
    # whole by the build, not a knob of a run.
    "KernelConfig",
}


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _name(deco.func if isinstance(deco, ast.Call) else deco) == "dataclass"
        for deco in node.decorator_list
    )


def test_every_option_field_is_set_by_some_call():
    trees = [
        (top, ast.parse(path.read_text(encoding="utf-8")))
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    ]
    fields, exempt = {}, set()
    for top, tree in trees:
        for node in ast.walk(tree):
            if (top == "src/repro" and isinstance(node, ast.ClassDef)
                    and node.name.endswith(SUFFIXES) and _is_dataclass(node)):
                if node.name in EXEMPT:
                    exempt.add(node.name)
                    continue
                fields[node.name] = [stmt.target.id for stmt in node.body
                                     if isinstance(stmt, ast.AnnAssign)]
    set_by_calls = {name: set() for name in fields}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name(node.func) in fields:
                name = _name(node.func)
                set_by_calls[name].update(fields[name][:len(node.args)])
                set_by_calls[name].update(kw.arg for kw in node.keywords)
    unset = [f"{name}.{field}" for name in sorted(fields)
             for field in fields[name] if field not in set_by_calls[name]]
    assert exempt == EXEMPT
    assert {"ExecOptions", "LabOptions", "MonitoringOptions",
            "StormOptions"} <= set(fields)
    assert unset == []
