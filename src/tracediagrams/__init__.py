"""Exact-arithmetic trace diagram engine.

Trace diagrams are directed graphs with degree-1 and degree-n vertices whose
edges carry matrix labels; summing matrix entries over signed edge colorings
turns each framed diagram into a multilinear function. This package models
the diagrams, evaluates them exactly over the rationals, provides the named
diagrams (determinant, characteristic coefficients, antisymmetrizers, vector
products, single-vertex pairings), and verifies the catalog of identities
they encode against independent classical oracles.
"""

from .algebra import (
    RelationCheck,
    compose,
    compose_sums,
    is_relation,
    reframe,
    reframe_positions,
    sum_closed_value,
    sum_function_matrix,
    tensor,
)
from .diagram import (
    Coloring,
    Edge,
    EndRef,
    FormalSum,
    HEAD,
    INTERNAL,
    LEAF,
    MatrixBinding,
    TAIL,
    TraceDiagram,
    ValidationResult,
    Vertex,
    internal,
    leaf,
    validate,
    vertex_permutation,
)
from .engine import (
    FunctionMatrix,
    enumerate_colorings,
    evaluate_closed,
    coefficient,
    function_matrix,
    signature,
    weight,
)
from .errors import (
    CompositionError,
    DiagramStructureError,
    DimensionMismatchError,
    DslSyntaxError,
    FramingError,
    HomogeneityError,
    InadmissibleColoringError,
    InexactValueError,
    LeafColoringError,
    TraceDiagramError,
    UnboundLabelError,
)

__all__ = [name for name in dir() if not name.startswith("_")]
