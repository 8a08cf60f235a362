"""Heap and truss algebra for decategorifying finite category descriptions.

The package turns enumerated pushout data into presented abelian heaps,
decides word equality through integer lattice membership, and extracts the
retract group structure (rank and invariant factors) via Smith normal form.

``import k0heap`` loads no layer: each public name below loads its module on
first use, so a program that never touches a heap model never compiles
``heaps``.
"""

from importlib import import_module

_LAYERS = {
    "category": ("CategorySpec", "FunctorSpec", "PushoutEntry", "functor_induced", "k0_group", "k0_presentation",
                 "split_presentation", "validate_spec"),
    "heaps": ("FiniteHeapModel", "FreeHeapWord", "GroupModel", "check_heap_morphism", "heap_from_group",
              "nary_product", "reduce_word", "retract_group", "ternary"),
    "lattice": ("IntMatrix", "InvariantFactors", "hnf", "snf"),
    "presentation": ("AbelianHeapPresentation", "AffineWord", "RelationVector", "TrussTable", "bracket",
                     "compare_projection", "induced_morphism", "normalize_affine", "retract_group_structure",
                     "truss_from_table", "word_equal"),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
