"""Heap and truss algebra for decategorifying finite category descriptions.

The package turns enumerated pushout data into presented abelian heaps,
decides word equality through integer lattice membership, and extracts the
retract group structure (rank and invariant factors) via Smith normal form.
"""

from .category import (
    CategorySpec,
    FunctorSpec,
    PushoutEntry,
    compare_projection,
    functor_induced,
    k0_group,
    k0_presentation,
    split_presentation,
    validate_spec,
)
from .heaps import (
    FiniteHeapModel,
    FreeHeapWord,
    GroupModel,
    check_heap_morphism,
    heap_from_group,
    nary_product,
    reduce_word,
    retract_group,
    ternary,
)
from .lattice import IntMatrix, InvariantFactors, hnf, snf
from .presentation import (
    AbelianHeapPresentation,
    AffineWord,
    RelationVector,
    TrussTable,
    bracket,
    induced_morphism,
    normalize_affine,
    retract_group_structure,
    truss_from_table,
    word_equal,
)

__all__ = [
    "AbelianHeapPresentation",
    "AffineWord",
    "CategorySpec",
    "FiniteHeapModel",
    "FreeHeapWord",
    "FunctorSpec",
    "GroupModel",
    "IntMatrix",
    "InvariantFactors",
    "PushoutEntry",
    "RelationVector",
    "TrussTable",
    "bracket",
    "check_heap_morphism",
    "compare_projection",
    "functor_induced",
    "heap_from_group",
    "hnf",
    "induced_morphism",
    "k0_group",
    "k0_presentation",
    "nary_product",
    "normalize_affine",
    "reduce_word",
    "retract_group",
    "retract_group_structure",
    "snf",
    "split_presentation",
    "ternary",
    "truss_from_table",
    "validate_spec",
    "word_equal",
]

__version__ = "0.1.0"
