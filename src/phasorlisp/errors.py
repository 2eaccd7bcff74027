"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``kind`` tag; the CLI prints
failures as ``ERROR:<kind>: message`` and maps kinds to exit codes.
"""


class PhasorError(Exception):
    """Base class for all package errors."""

    kind = "error"


class DimensionError(PhasorError):
    """Operands have incompatible or invalid dimensions, or a vector to be
    stored has a component that is not finite or lies beyond float32 range."""

    kind = "dimension"


class InvalidModuliError(PhasorError):
    """Moduli are not pairwise co-prime or are below 2."""

    kind = "moduli"


class DecodeError(PhasorError):
    """No integer reading of the vector passes the re-encode check."""

    kind = "decode"


class NoInverseError(PhasorError):
    """The decoded operand shares a factor with the modulus product."""

    kind = "no-inverse"


class MemoryEmptyError(PhasorError):
    """Recall attempted against an empty cleanup memory."""

    kind = "memory-empty"


class NoMatchError(PhasorError):
    """No stored symbol is similar enough to the probe."""

    kind = "no-match"


class DanglingPointerError(PhasorError):
    """Pointer does not dereference to any stored chunk."""

    kind = "dangling-pointer"


class ParseError(PhasorError):
    """Malformed source text; ``position`` is a character offset."""

    kind = "parse"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class EvalError(PhasorError):
    """Base class for evaluation-time failures."""

    kind = "eval"


class UnboundSymbolError(EvalError):
    kind = "unbound"


class NotApplicableError(EvalError):
    kind = "not-applicable"


class ArityError(EvalError):
    kind = "arity"


class LispTypeError(EvalError):
    kind = "type"


class RecursionDepthError(EvalError):
    """Evaluation recursed deeper than the Python stack allows."""

    kind = "depth"


class ConfigError(PhasorError):
    """Invalid configuration value."""

    kind = "config"


class SessionIOError(PhasorError):
    """A session file or script is missing or malformed."""

    kind = "io"
