"""Exception hierarchy shared across the package."""


class TraceDiagramError(Exception):
    """Base class for all errors raised by this package."""


class DiagramStructureError(TraceDiagramError):
    """The diagram violates a structural constraint (degrees, ciliation, framing)."""


class FramingError(TraceDiagramError):
    """An operation needed a framing that is absent or incompatible."""


class InadmissibleColoringError(TraceDiagramError):
    """A coloring repeats a label at an internal vertex or breaks an edge constraint."""


class LeafColoringError(TraceDiagramError):
    """A leaf coloring does not cover exactly the open leaves of the diagram."""


class UnboundLabelError(TraceDiagramError):
    def __init__(self, label: str):
        super().__init__(f"label {label!r} is not bound")
        self.label = label


class DimensionMismatchError(TraceDiagramError):
    """Bound data or combined diagrams disagree about the dimension."""


class CompositionError(TraceDiagramError):
    """Diagrams cannot be glued (arity mismatch or opposed marked wires)."""


class HomogeneityError(TraceDiagramError):
    """The function handed to the polarization routine is not homogeneous of the claimed degree."""


class DslSyntaxError(TraceDiagramError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InexactValueError(TraceDiagramError):
    """A matrix or vector entry or a coefficient is not an exact rational (a float, say)."""
