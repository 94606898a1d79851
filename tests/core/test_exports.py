"""Every name a ``repro`` module lists in ``__all__`` exists."""

import importlib
import pkgutil

import repro


def test_every_all_name_resolves():
    """A name left in ``__all__`` after its definition is deleted breaks
    ``from repro.x import *`` and nothing else, so check them all."""
    missing = []
    modules = [repro.__name__] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    for name in modules:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert len(modules) > 90
    assert missing == []
