"""Sandpile dynamics on complete bipartite graphs with a dedicated sink.

Two models share the same state space: deterministic toppling (asm) and
Bernoulli edge toppling (ssm).  Recurrent states of each model are
recognized in linear time and mapped bijectively onto Ferrers diagram
pairs, parallelogram polyominoes, and Motzkin-like lattice words.

Importing the package loads none of its submodules: each public name, and
each submodule that defines one, is imported on first access and then
bound here as the submodule's own object.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "enumeration": (
        "CSV_HEADER", "CensusRow", "census", "empirical_support", "enumerate_recurrent",
        "enumerate_stable", "spanning_tree_count",
    ),
    "errors": ("GuardError", "TopplingStallError"),
    "ferrers": (
        "FerrersDag", "FerrersDiagram", "FerrersPair", "LabelledFerrersPair", "add",
        "apply_sequence", "build_dag", "config_to_labelled_pair", "config_to_pair", "dag_to_dot",
        "is_compatible", "is_strongly_compatible", "labelled_pair_to_config", "legal_adds",
        "legal_shifts", "pair_to_config", "shift", "witness_sequence",
    ),
    "model": (
        "MODELS", "BipartiteShape", "Configuration", "ToppleOracle", "Vertex", "add_grain",
        "is_stable", "markov_step", "simulate", "stabilize_deterministic", "stabilize_stochastic",
        "topple_deterministic", "topple_stochastic", "trajectory",
    ),
    "motzkin": (
        "MotzkinWord", "config_to_motzkin", "motzkin_to_config", "motzkin_to_polyomino",
        "polyomino_to_motzkin",
    ),
    "polyomino": (
        "ParallelogramPolyomino", "config_to_polyomino", "pair_to_polyomino", "polyomino_to_config",
    ),
    "recurrence": (
        "ForbiddenWitness", "counts_below", "forbidden_witness_asm", "forbidden_witness_ssm",
        "is_deterministically_recurrent", "is_recurrent", "is_stochastically_recurrent", "level",
        "sort_config",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # binds itself here
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
