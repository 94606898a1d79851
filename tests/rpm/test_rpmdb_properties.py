"""Property tests: the rpm database stays consistent under random ops."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpm import (
    ConflictError,
    DependencyError,
    Package,
    RpmDatabase,
    RpmError,
)

NAMES = ["alpha", "beta", "gamma", "delta", "epsilon"]

op_st = st.tuples(
    st.sampled_from(["install", "erase"]),
    st.sampled_from(NAMES),
    st.integers(min_value=1, max_value=9),  # version component
    st.booleans(),  # add a dependency on the previous name?
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(op_st, min_size=1, max_size=25))
def test_rpmdb_invariants_under_random_operations(ops):
    """After any accepted operation sequence:

    * at most one build of a name is installed,
    * the dependency graph of the installed set is self-consistent
      (every operation either keeps verify() true or raises),
    * erase never leaves dangling requirers.
    """
    db = RpmDatabase()
    for kind, name, version, dep in ops:
        prev = NAMES[NAMES.index(name) - 1]
        requires = (prev,) if dep and prev != name else ()
        pkg = Package(name, f"1.{version}", requires=requires)
        try:
            if kind == "install":
                db.install(pkg)
            else:
                db.erase(name)
        except (ConflictError, DependencyError, RpmError):
            pass  # refused operations must leave the DB untouched
        # invariants hold after every step
        assert db.verify(), db.unsatisfied()
        names = db.installed_names()
        assert len(names) == len(set(names))
