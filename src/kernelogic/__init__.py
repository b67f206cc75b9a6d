"""kernelogic: paradox-tolerant propositional logic on digraphs.

Theories in graph normal form are digraphs; kernels of the digraph are
the classical models. When no kernel exists the theory is paradoxical,
and the inverse-closed semikernels with maximal settled domain step in
as models that keep the consistent part of the discourse meaningful.
Direct resolution (no refutation, no weakening) decides entailment for
this semantics, and brute-force oracles double-check every engine path
at desk scale.

The public names load lazily (PEP 562): ``import kernelogic`` runs no
submodule, and the first use of a name imports only the submodule that
defines it, so a caller pays for the engines it uses.
"""

from importlib import import_module

# Each public name, by the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "clauses": (
            "ClausalTheory",
            "Clause",
            "Literal",
            "clausal_theory",
            "clause_sort_key",
            "complement_units",
            "remove_atoms",
        ),
        "errors": (
            "KernelogicError",
            "ParseError",
            "ResourceLimitError",
            "ValidationError",
        ),
        "graphs": (
            "Digraph",
            "GnfTheory",
            "Neighborhood",
            "Universe",
            "complete_loose_atoms",
            "graph_to_theory",
            "induced_subgraph",
            "is_inverse_closed",
            "is_valid_atom",
            "neighborhoods",
            "reachable",
            "theory_to_graph",
            "underlying_components",
        ),
        "kernels": (
            "Partition2",
            "Partition3",
            "SubsetReport",
            "classify_subset",
            "enumerate_kernels",
            "enumerate_semikernels",
            "extend_partition",
            "models",
            "partition_of",
            "sk_intersect_reach",
            "sk_union",
        ),
        "oracle": (
            "RandomGraphSpec",
            "brute_closure",
            "brute_kernels",
            "brute_models",
            "brute_semikernels",
            "random_digraph",
            "splitmix64",
            "truth_table_models",
        ),
        "resolution": (
            "Closure",
            "Proof",
            "ProofStep",
            "closure_with_assumptions",
            "component_claim_check",
            "consistent_subtheory",
            "derives",
            "entails_para",
            "is_relevant",
            "min_clauses",
            "paradoxical_atoms",
            "proof_of",
            "provable_weakened",
            "saturate",
            "witness_subclause",
        ),
        "semantics": (
            "EntailmentVerdict",
            "SubdiscourseReport",
            "classical_entails",
            "core_models",
            "entails_semantic",
            "satisfies",
        ),
    }.items()
    for name in names
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve a public name from its submodule on first use, and keep it."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
