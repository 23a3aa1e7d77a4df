"""Symbolic analysis: elimination tree, column counts, supernodes, assembly tree.

This package turns a sparse pattern plus an ordering into the *assembly tree*
used by the multifrontal method (Section 2 of the paper): each node carries a
frontal matrix with ``npiv`` fully-summed variables and a contribution block
of order ``nfront - npiv``.  Everything downstream (sequential memory
analysis, static mapping, the parallel scheduling simulation) works on this
tree.
"""

from repro.symbolic.etree import elimination_tree, postorder, tree_levels, tree_depth, children_lists
from repro.symbolic.colcounts import column_counts, column_counts_naive, symbolic_fill
from repro.symbolic.supernodes import AMALGAMATION, fundamental_supernodes, amalgamate
from repro.symbolic.assembly_tree import AssemblyTree, FrontNode, build_assembly_tree
from repro.symbolic.splitting import split_large_masters, SplitReport
from repro.symbolic.liu_order import order_children_for_memory, sequential_peak_of_tree

__all__ = [
    "elimination_tree",
    "postorder",
    "tree_levels",
    "tree_depth",
    "children_lists",
    "column_counts",
    "column_counts_naive",
    "symbolic_fill",
    "fundamental_supernodes",
    "amalgamate",
    "AMALGAMATION",
    "AssemblyTree",
    "FrontNode",
    "build_assembly_tree",
    "split_large_masters",
    "SplitReport",
    "order_children_for_memory",
    "sequential_peak_of_tree",
]
