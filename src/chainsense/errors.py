"""Shared exception types.

The CLI maps these onto exit codes; library callers can catch them
individually.
"""


class ChainsenseError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ChainsenseError):
    """Input lacks the shape or structure the operation is defined on.

    Two operators (or an operator and a register) disagree on qubit
    count; a matrix lacks the form a routine relies on (an A that is not
    upper Hessenberg, the SPT reduction outside odd N); a polynomial
    system is empty; or a computed basis fails its own check."""


class NonHermitianOperator(ChainsenseError):
    """An operation that requires a hermitian Pauli string received one with
    an odd power of i."""


class OracleSizeLimit(ChainsenseError):
    """A dense-matrix oracle was asked for more qubits than it will build."""


class InadmissibleConfig(ChainsenseError):
    """The requested scheme/initial-state combination is not in the catalog,
    or a config value is out of range.  CLI exit code 2."""


class UnidentifiableScheme(ChainsenseError):
    """Parameter recovery was requested for a scheme that cannot determine
    the parameters; the message explains which diagnostic failed.  CLI exit
    code 3."""


class NumericFailure(ChainsenseError):
    """A numeric procedure lost too much accuracy to certify its result
    (ambiguous model order, branch-unsafe sampling, singular solve).  CLI
    exit code 4."""


class BudgetExceeded(ChainsenseError):
    """A symbolic computation hit its configured term/pair budget."""


class AtypicalParameters(ChainsenseError):
    """A binding sits on the measure-zero set excluded by the generic-case
    analysis (some coupling is zero, or a required minor vanishes)."""
