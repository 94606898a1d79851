"""Nodeset targeting through the frontend tool surfaces (§6.4).

cluster-fork over nodeset expressions and database group sources, and
campaign targeting via ``chaos_reinstall(targets=)``.
"""

import pytest

from repro import build_cluster
from repro.core.tools import cluster_fork, frontend_groups
from repro.exec import ExecState, NodeSet
from repro.faults import campaign_size, chaos_reinstall, select_machines


@pytest.fixture(scope="module")
def sim():
    s = build_cluster(n_compute=4)
    s.integrate_all()
    return s


def echo(machine, proc):
    proc.stdout.append(machine.hostid)
    return 0


class TestFrontendGroups:
    def test_at_compute_resolves_membership(self, sim):
        ns = NodeSet("@compute", resolver=frontend_groups(sim.frontend))
        assert ns.fold() == "compute-0-[0-3]"

    def test_at_all_and_at_cabinet(self, sim):
        resolver = frontend_groups(sim.frontend)
        assert NodeSet("@all", resolver=resolver).fold() == "compute-0-[0-3]"
        assert NodeSet("@cabinet0", resolver=resolver).fold() == \
            "compute-0-[0-3]"

    def test_unknown_group(self, sim):
        from repro.exec import NodeSetParseError

        with pytest.raises(NodeSetParseError, match="unknown group"):
            NodeSet("@warehouse", resolver=frontend_groups(sim.frontend))


class TestClusterForkNodesets:
    def test_fork_accepts_nodeset_expression(self, sim):
        report = cluster_fork(sim.frontend, echo, nodes="compute-0-[1-2]")
        assert report.targets == ["compute-0-1", "compute-0-2"]
        assert report.results["compute-0-2"].stdout == ["compute-0-2"]

    def test_fork_accepts_group(self, sim):
        report = cluster_fork(sim.frontend, echo, nodes="@compute")
        assert report.count(ExecState.OK) == 4


class TestCampaignTargeting:
    def test_campaign_size_from_aliases(self):
        assert campaign_size("node[0-31]") == 32
        assert campaign_size("compute-1-[0-3]") == 36  # rack 1 rank 3
        with pytest.raises(ValueError):
            campaign_size("gateway")

    def test_select_machines_by_name_and_alias(self, sim):
        assert [m.hostid for m in select_machines(sim, "compute-0-[1-2]")] \
            == ["compute-0-1", "compute-0-2"]
        assert [m.hostid for m in select_machines(sim, "node[0-1]")] \
            == ["compute-0-0", "compute-0-1"]
        assert len(select_machines(sim, "@compute")) == 4
        with pytest.raises(ValueError, match="does not match"):
            select_machines(sim, "node99")

    def test_chaos_reinstall_targets_subset(self):
        result = chaos_reinstall(n_nodes=4, plan="none", targets="node[0-1]")
        assert result.n_nodes == 2
        assert result.completion_rate == 1.0
        hosts = {n.host for n in result.report.nodes}
        assert hosts == {"compute-0-0", "compute-0-1"}

    def test_chaos_reinstall_grows_cluster_to_fit(self):
        result = chaos_reinstall(n_nodes=2, plan="none", targets="node[0-4]")
        assert result.n_nodes == 5
