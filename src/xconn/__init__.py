"""Exact g-extra connectivity toolkit for strong products of paths and cycles."""

from .graph import Graph, components, from_edges, induced_subgraph, is_complete, \
    is_connected, make_cycle, make_path, min_degree, neighborhood
from .products import ProductGraph, cartesian_product, classify_cut, family_product, \
    layer, make_i_set, make_l_set, slice_of_set, strong_product
from .solver import INFINITY, ExtraConnResult, InconclusiveError, check_g_extra_cut, \
    check_layer_bounds, classical_connectivity, enumerate_min_cuts, \
    kappa_extra_fragment, kappa_extra_subset
from .formulas import DomainError, FamilyParams, ceiling_identity, guard, \
    kappa_closed_form, kappa_formula, kappa_small_case
from .witnesses import WitnessSpec, build_witness, plan_witness, validate_witness
from .verifier import SweepConfig, SweepRow, check_cartesian_connectivity, \
    check_min_cut_classification, sweep

__all__ = [
    "Graph", "ProductGraph", "ExtraConnResult", "FamilyParams", "WitnessSpec",
    "SweepConfig", "SweepRow", "INFINITY", "DomainError", "InconclusiveError",
    "components", "from_edges", "induced_subgraph", "is_complete", "is_connected",
    "make_cycle", "make_path", "min_degree", "neighborhood",
    "cartesian_product", "classify_cut", "family_product", "layer",
    "make_i_set", "make_l_set", "slice_of_set", "strong_product",
    "check_g_extra_cut", "check_layer_bounds", "classical_connectivity",
    "enumerate_min_cuts", "kappa_extra_fragment", "kappa_extra_subset",
    "ceiling_identity", "guard", "kappa_closed_form", "kappa_formula",
    "kappa_small_case", "build_witness", "plan_witness", "validate_witness",
    "check_cartesian_connectivity", "check_min_cut_classification", "sweep",
]
