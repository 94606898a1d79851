"""Fixtures shared by the analysis tests."""

import pytest

from repro.analysis import analyze_self, default_self_context


@pytest.fixture(scope="session")
def src_repro_lint():
    """``src/repro`` parsed once and self-linted once, for every test that
    reads the whole tree: ``(context, diagnostics)``, baseline not applied.

    A full self-lint takes seconds; the tests only read the result.
    """
    ctx = default_self_context()
    return ctx, analyze_self(ctx)
