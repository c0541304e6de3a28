"""Dag substrate: graphs, topological sorts, prefixes, generators.

This subpackage is the graph-theoretic foundation under
:mod:`repro.core`.  It knows nothing about memory operations — it deals
purely with finite dags, their reachability structure, their topological
sorts (``TS(G)`` in the paper), and their prefixes (downsets).
"""

from repro.dag.digraph import Dag, bit_indices, bits
from repro.dag.metrics import (
    level_sizes,
    parallelism,
    span,
    width,
    work,
)
from repro.dag.interop import from_networkx, to_networkx
from repro.dag.enumerate import canonical_form, ordered_dags, unique_dags
from repro.dag.prefixes import (
    all_antichains,
    all_prefix_masks,
    is_antichain,
    is_prefix_mask,
    prefix_closure_mask,
)
from repro.dag.random_dags import (
    chain_dag,
    empty_dag,
    fork_join_dag,
    gnp_dag,
    layered_dag,
)
from repro.dag.sp import (
    SPNode,
    all_sp_trees,
    balanced_sp,
    is_series_parallel,
    leaf,
    parallel,
    random_sp,
    series,
    sp_to_dag,
)
from repro.dag.toposort import (
    all_topological_sorts,
    count_topological_sorts,
    is_topological_sort,
    random_topological_sort,
)

__all__ = [
    "Dag",
    "bits",
    "bit_indices",
    "all_topological_sorts",
    "count_topological_sorts",
    "is_topological_sort",
    "random_topological_sort",
    "is_prefix_mask",
    "all_prefix_masks",
    "prefix_closure_mask",
    "all_antichains",
    "is_antichain",
    "gnp_dag",
    "layered_dag",
    "fork_join_dag",
    "chain_dag",
    "empty_dag",
    "ordered_dags",
    "unique_dags",
    "canonical_form",
    "work",
    "span",
    "parallelism",
    "width",
    "level_sizes",
    "to_networkx",
    "from_networkx",
    "SPNode",
    "leaf",
    "series",
    "parallel",
    "sp_to_dag",
    "is_series_parallel",
    "balanced_sp",
    "random_sp",
    "all_sp_trees",
]
