"""Exception hierarchy shared by every module.

The CLI maps these onto stable exit codes: invalid input -> 4,
hypothesis not met -> 2, budget exceeded -> 3; any other package error,
such as a broken internal invariant, -> 4.
"""


class CyclocoverError(Exception):
    """Base class for all package errors."""

    code = "error"


class InvalidInput(CyclocoverError):
    code = "invalid-input"


class ZeroLabel(InvalidInput):
    code = "zero-label"


class NotGenerating(InvalidInput):
    code = "not-generating"


class SumNonzero(InvalidInput):
    code = "sum-nonzero"


class PDividesM(InvalidInput):
    code = "p-divides-m"


class QuotientDegenerate(InvalidInput):
    code = "quotient-degenerate"


class NotAdmissible(InvalidInput):
    code = "not-admissible"


class ParamOutOfRange(InvalidInput):
    code = "param-out-of-range"


class IndexOutOfRange(InvalidInput):
    code = "index-out-of-range"


class WrongCongruenceClass(InvalidInput):
    code = "wrong-congruence-class"


class UnsupportedFamily(InvalidInput):
    code = "unsupported-family"


class HypothesisNotMet(CyclocoverError):
    code = "hypothesis-not-met"


class PsiHypothesisNotMet(HypothesisNotMet):
    code = "psi-hypothesis-not-met"


class DegreeBudgetExceeded(CyclocoverError):
    code = "degree-budget-exceeded"


class InternalError(CyclocoverError):
    """A library invariant failed: a bug, never a property of the input."""

    code = "internal-error"
