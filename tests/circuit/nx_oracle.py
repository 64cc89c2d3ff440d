"""networkx reference graphs for the netlist's combinational graph.

networkx is a test-only oracle.  :func:`combinational_digraph` builds the
``DiGraph`` node by node and edge by edge as ``Netlist`` did before its
graph moved to integer ids, so tests can compare the id graph's node
order, adjacency and topological order with networkx's, and check
graph properties (acyclicity, reachability) independently of it.
"""

from __future__ import annotations

import networkx as nx

from repro.circuit.netlist import Netlist


def combinational_digraph(netlist: Netlist) -> nx.DiGraph:
    """The combinational DAG with each flip-flop ``f`` split in two.

    ``f`` is the launching ``Q`` output and ``("sink", f)`` the capturing
    ``D`` input; every fan-in becomes an edge from the driver to the node.
    """
    graph = nx.DiGraph()
    for inst in netlist.instances.values():
        if inst.is_flip_flop:
            graph.add_node(inst.name, kind="ff_source")
            graph.add_node(("sink", inst.name), kind="ff_sink")
        else:
            graph.add_node(inst.name, kind=inst.kind.value)
    for inst in netlist.instances.values():
        target = ("sink", inst.name) if inst.is_flip_flop else inst.name
        for src in inst.fanins:
            graph.add_edge(src, target)
    return graph


def sequential_adjacency(netlist: Netlist) -> nx.DiGraph:
    """Flip-flop pairs joined by at least one combinational path."""
    comb = combinational_digraph(netlist)
    seq = nx.DiGraph()
    seq.add_nodes_from(netlist.flip_flops)
    for ff in netlist.flip_flops:
        for node in nx.descendants(comb, ff):
            if isinstance(node, tuple) and node[0] == "sink":
                seq.add_edge(ff, node[1])
    return seq
