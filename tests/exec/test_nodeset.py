"""NodeSet: folding, expansion, groups, set algebra, parse errors."""

import pytest

from repro.exec import NodeSet, NodeSetParseError


class TestParsingAndFolding:
    def test_bracket_expansion(self):
        ns = NodeSet("node[0-3]")
        assert ns.expand() == ["node0", "node1", "node2", "node3"]

    def test_single_node_folds_unbracketed(self):
        assert NodeSet("node[5]").fold() == "node5"
        assert NodeSet("node5").fold() == "node5"

    def test_fold_round_trip(self):
        for text in ["node[0-1023]", "compute-0-[0-31],compute-1-[0-15]",
                     "node[0-38,40,42-99]", "gateway,node[0-3]"]:
            ns = NodeSet(text)
            assert NodeSet(ns.fold()) == ns

    def test_plain_names_with_numbers_fold_together(self):
        assert NodeSet.from_names(["node3", "node1", "node2"]).fold() == "node[1-3]"

    def test_scalar_names_kept_verbatim(self):
        ns = NodeSet("gateway,frontend-0")
        assert "gateway" in ns.expand()

    def test_zero_padding_preserved(self):
        ns = NodeSet("node[001-003]")
        assert ns.expand() == ["node001", "node002", "node003"]
        assert ns.fold() == "node[001-003]"

    def test_padded_and_unpadded_patterns_stay_separate(self):
        ns = NodeSet("node[001-003],node[1-3]")
        assert len(ns) == 6

    def test_prefix_and_suffix(self):
        ns = NodeSet("compute-0-[0-2]")
        assert ns.expand() == ["compute-0-0", "compute-0-1", "compute-0-2"]

    def test_overlapping_ranges_merge(self):
        assert NodeSet("node[0-10],node[5-20]").fold() == "node[0-20]"

    @pytest.mark.parametrize("bad", ["node[0-3", "node0-3]", "node[[0]]",
                                     "node[0][1]", "node[]", ""])
    def test_malformed_rejected(self, bad):
        if bad == "":
            assert not NodeSet(bad)  # empty text -> empty set
        else:
            with pytest.raises(NodeSetParseError):
                NodeSet(bad)

    def test_iteration_is_sorted_and_deterministic(self):
        ns = NodeSet("zeta[1-2],alpha[5-6],gateway")
        assert ns.expand() == ["alpha5", "alpha6", "zeta1", "zeta2", "gateway"]


class TestSetAlgebra:
    def test_union(self):
        ns = NodeSet("node[0-4]")
        ns.update(NodeSet("node[3-8]"))
        assert ns.fold() == "node[0-8]"

    def test_algebra_spans_scalars(self):
        ns = NodeSet("node[0-1],gateway")
        ns.update(NodeSet("gateway,nas"))
        assert ns.fold() == "node[0-1],gateway,nas"

    def test_membership(self):
        ns = NodeSet("node[0-99],gateway")
        assert "node42" in ns and "gateway" in ns
        assert "node100" not in ns and "other" not in ns


class TestGroups:
    RACKS = {
        "compute": "compute-0-[0-31],compute-1-[0-31]",
        "cabinet0": ["compute-0-" + str(i) for i in range(32)],
    }

    def resolver(self, group):
        return self.RACKS[group]

    def test_group_expands_via_resolver(self):
        ns = NodeSet("@compute", resolver=self.resolver)
        assert len(ns) == 64

    def test_group_as_iterable(self):
        ns = NodeSet("@cabinet0", resolver=self.resolver)
        assert ns.fold() == "compute-0-[0-31]"

    def test_group_composes_with_literals(self):
        ns = NodeSet("@cabinet0,node7", resolver=self.resolver)
        assert len(ns) == 33

    def test_unknown_group_raises(self):
        with pytest.raises(NodeSetParseError, match="unknown group @nope"):
            NodeSet("@nope", resolver=self.resolver)

    def test_group_without_resolver_raises(self):
        with pytest.raises(NodeSetParseError, match="no group source"):
            NodeSet("@compute")
