"""Exception hierarchy shared across the kernel."""


class LayerPropError(Exception):
    """Base class for all kernel errors."""


class UnknownSymbol(LayerPropError):
    """An object word uses a symbol not declared in its layer."""


class UnknownGenerator(LayerPropError):
    """A slice or box refers to a morphism generator that does not exist."""


class UnknownLayer(LayerPropError):
    """A layer name is not part of the system."""


class UnknownFunctor(LayerPropError):
    """No translation functor is stored for the requested layer pair."""


class SortMismatch(LayerPropError):
    """Sequential composition (or a parallel-sort precondition) failed."""


class SideConditionViolation(LayerPropError):
    """An in-layer tensor was applied to an operand that is not internal."""


class BoundaryMismatch(LayerPropError):
    """Profunctor composition attempted across unequal middle categories."""


class ArityMismatch(LayerPropError):
    """Affine relation composition with incompatible wire counts."""


class ModelIncomplete(LayerPropError):
    """A diagram mentions a layer or generator the finite model does not bind."""


class SearchTooLarge(LayerPropError):
    """A search exceeded its cap: a natural-transformation component
    search, the enumeration of an interchange class, or a sampled pool of
    rule instances."""


class StaleMatch(LayerPropError):
    """A match was applied to a diagram other than the one it was found on."""


class InvalidDerivation(LayerPropError):
    """A derivation failed to replay."""


class VariableNotFresh(LayerPropError):
    """The splitting variable already occurs in the partition."""


class VariableAbsent(LayerPropError):
    """join() expects the variable to occur in both fragments."""


class VariableMultiple(LayerPropError):
    """join() expects the variable to occur exactly once per fragment."""


class FixtureInvalid(LayerPropError):
    """A shipped case-study fixture failed validation."""


class SquareViolation(LayerPropError):
    """The boxing/wrapping square does not commute on some generator."""


class MalformedInput(LayerPropError):
    """A file or literal could not be parsed into the expected shape."""


def check_count(name: str, value: int) -> None:
    """Reject a negative count (a budget, word length or cap) by name."""
    if value < 0:
        raise MalformedInput(f"{name} must not be negative, got {value}")


# how deep the text readers (s-expression terms, CCS processes) let
# parentheses nest: elaborating a form recurses once or twice per level, and
# this keeps it well inside Python's default recursion limit of 1000
MAX_NESTING = 200
