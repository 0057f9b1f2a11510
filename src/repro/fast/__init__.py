"""Vectorized Monte-Carlo engines (substrate S14).

Importing registers the fast algorithms under the names::

    luby_fast, fair_rooted_fast, fair_tree_fast, fair_bipart_fast,
    color_mis_fast
"""

from .batched import (
    batched_trials,
    disjoint_power,
    disjoint_power_cache_clear,
    disjoint_power_cache_info,
)
from .blocks import (
    FastColorMIS,
    FastFairBipart,
    arboricity_coloring_fast,
    color_mis_run,
    construct_block_fast,
    draw_radii,
    fair_bipart_run,
    greedy_coloring_fast,
)
from .cfb import cfb_fast
from .engine import (
    edge_both,
    neighbor_any,
    neighbor_count,
    neighbor_max,
    priority_keys,
)
from .fair_rooted import (
    FastColeVishkin,
    FastFairRooted,
    cole_vishkin_colors,
    fair_rooted_run,
)
from .fair_tree import FastFairTree, fair_tree_run
from .luby import FastLuby, luby_degree_sweep, luby_sweep

__all__ = [
    "batched_trials",
    "disjoint_power",
    "disjoint_power_cache_clear",
    "disjoint_power_cache_info",
    "FastColorMIS",
    "FastFairBipart",
    "arboricity_coloring_fast",
    "color_mis_run",
    "construct_block_fast",
    "draw_radii",
    "fair_bipart_run",
    "greedy_coloring_fast",
    "cfb_fast",
    "edge_both",
    "neighbor_any",
    "neighbor_count",
    "neighbor_max",
    "priority_keys",
    "FastColeVishkin",
    "FastFairRooted",
    "cole_vishkin_colors",
    "fair_rooted_run",
    "FastFairTree",
    "fair_tree_run",
    "FastLuby",
    "luby_degree_sweep",
    "luby_sweep",
]
