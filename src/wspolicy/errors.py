"""Exception types raised across the package."""
from __future__ import annotations


class WspolicyError(Exception):
    """Base class for every error this library raises on purpose."""


class ModelSyntaxError(WspolicyError):
    """The model document is not parseable at all (bad UTF-8 or bad JSON)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ModelSchemaError(WspolicyError):
    """The model document parses but violates the format schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class XmlParseError(WspolicyError):
    """An XML input is not well-formed or not the expected document kind."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class PolicyXmlError(WspolicyError):
    """A wsp:Policy fragment uses constructs outside the supported dialect."""


class GenerationError(WspolicyError):
    """Emission refused: precondition failed or the model is not emittable.

    ``diagnostics`` holds the validation errors behind the refusal, if any."""

    def __init__(self, message: str, diagnostics: tuple = ()):
        super().__init__(message)
        self.diagnostics = diagnostics


class VocabularyError(WspolicyError):
    """Semantic matching needed an assertion declaration that is not available."""


class OracleLimitError(WspolicyError):
    """The enumeration oracle refuses trees above its size limit."""
