"""Exception types shared across the package."""


class QrelaxError(Exception):
    """Base class for every error raised by this package."""


class ParseError(QrelaxError):
    """Malformed input text; names the offending line when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DimensionError(QrelaxError):
    """Inconsistent shapes (non-square matrix, wrong-length vector)."""


class DegenerateRowError(QrelaxError):
    """A zero row cannot be normalized; skipping it silently would change
    the iteration semantics, so this is a hard error."""

    def __init__(self, row):
        super().__init__(f"row {row} has zero norm and cannot be normalized")
        self.row = row


class DegenerateColumnError(QrelaxError):
    def __init__(self, column):
        super().__init__(f"column {column} has zero norm and cannot be normalized")
        self.column = column


class DomainError(QrelaxError):
    """A relaxation value lies outside its declared validity domain."""

    def __init__(self, value, domain, k=None):
        at = f" at step k={k}" if k is not None else ""
        super().__init__(f"relaxation value {value!r}{at} outside the {domain} domain")
        self.value = value
        self.domain = domain
        self.k = k


class UsageError(QrelaxError):
    """An operation was invoked on inputs that violate its contract."""


class ResourceError(QrelaxError):
    """A simulation step would exceed the configured memory budget."""

    def __init__(self, k, required_bytes, limit_bytes):
        super().__init__(
            f"statevector at iteration k={k} needs {required_bytes} bytes, "
            f"over the {limit_bytes}-byte limit; raise --mem-limit or reduce steps"
        )
        self.k = k
        self.required_bytes = required_bytes
        self.limit_bytes = limit_bytes


class KeyWidthError(ResourceError):
    """A simulated register would need more ancillas than its int64 keys hold."""

    def __init__(self, k, ancillas, key_bits):
        QrelaxError.__init__(
            self,
            f"statevector at iteration k={k} needs {ancillas} ancillas, over the "
            f"{key_bits}-bit ancilla key width; reduce steps",
        )
        self.k = k
        self.ancillas = ancillas
        self.key_bits = key_bits


class InvariantViolation(QrelaxError):
    """An internal run invariant failed (e.g. statevector norm drifted)."""
