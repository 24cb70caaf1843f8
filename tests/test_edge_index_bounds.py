"""The edge index holds each node's bounds, and the solvers read them there.

``EdgeIndex`` keeps ``demand_lower`` and ``demand_upper`` per target and
``supply_lower`` and ``supply_upper`` per source, in listed order and
read-only, and ``centralized._bounds`` slices them per degree group. Its
groups must equal, bit for bit, the ones it built from the specs on every
call, kept below as the reference.
"""

import numpy as np
import pytest

from secalloc.centralized import _bounds
from test_edge_index import CASES, IDS


def reference_bounds(network, mode):
    """The groups as ``_bounds`` built them from the node specs."""
    index, op_b = network.edge_index, mode == "op_b"
    supply = np.array([(s.supply_lower if op_b else 0.0, s.supply_upper) for s in network.sources])
    demand = np.array([(t.demand_lower, t.demand_upper) for t in network.targets])
    sources = [(pos, *supply[nodes].T) for nodes, pos in index.source_groups]
    targets = [(pos, *demand[nodes].T) for nodes, pos in index.target_groups if op_b]
    return sources, targets


@pytest.mark.parametrize("net", [case[0] for case in CASES], ids=IDS)
def test_the_index_holds_each_nodes_bounds_read_only(net):
    index = net.edge_index
    for name, nodes in [("demand_lower", net.targets), ("demand_upper", net.targets),
                        ("supply_lower", net.sources), ("supply_upper", net.sources)]:
        array = getattr(index, name)
        assert array.dtype == float
        assert array.tolist() == [getattr(node, name) for node in nodes]
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("mode", ["op_a", "op_b"])
@pytest.mark.parametrize("net", [case[0] for case in CASES], ids=IDS)
def test_bounds_equal_the_groups_built_from_the_specs(net, mode):
    got, want = _bounds(net, mode), reference_bounds(net, mode)
    for got_side, want_side in zip(got, want):
        assert len(got_side) == len(want_side)
        for got_group, want_group in zip(got_side, want_side):
            assert [a.tobytes() for a in got_group] == [a.tobytes() for a in want_group]
