"""Exception types raised across the taxidma package.

Every error carries enough context to print a useful one-line message;
callers that need structured detail can read the attributes directly.
"""
from __future__ import annotations


class TaxidmaError(Exception):
    """Base class for all errors raised by this package."""


class CodeSyntaxError(TaxidmaError):
    """A code string violates the naming-convention grammar.

    ``offset`` is the zero-based character position of the first offending
    character in the original input string.
    """

    def __init__(self, message: str, offset: int, text: str = ""):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.text = text


class EmptyInputError(CodeSyntaxError):
    """The code string was empty."""

    def __init__(self, message: str = "empty code string"):
        super().__init__(message, 0, "")


class InvalidCodeError(TaxidmaError):
    """A structured code value violates a nesting or charset invariant."""


class MalformedDocumentError(TaxidmaError):
    """A catalog document is structurally unusable (bad JSON, missing or
    mistyped fields)."""


class DuplicateCodeError(TaxidmaError):
    """The same code is declared twice at one catalog level."""

    def __init__(self, code_path: str, first: str, second: str):
        super().__init__(
            f"duplicate declaration of {code_path}: {first} and {second}"
        )
        self.code_path = code_path
        self.first = first
        self.second = second


class DanglingProfileReferenceError(TaxidmaError):
    """A profile override points at a taxonomy/category that does not exist."""


class UnknownPathError(TaxidmaError):
    """A syntactically valid code does not resolve in the catalog.

    ``resolved_prefix`` holds the longest prefix (as a code string, possibly
    empty) that did resolve.
    """

    def __init__(self, code: str, resolved_prefix: str, message: str = ""):
        detail = message or "no such node"
        super().__init__(
            f"{code}: {detail}"
            + (f" (resolved up to {resolved_prefix!r})" if resolved_prefix else "")
        )
        self.code = code
        self.resolved_prefix = resolved_prefix


class InvalidIdentifierError(TaxidmaError):
    """A record id is unusable as a file stem."""


class UnknownApplicationError(TaxidmaError):
    """An application reference does not address any application of the record."""


class BackgroundNotApplicableError(TaxidmaError):
    """Attempt to add the background taxonomy as a repeatable application."""


class InvalidRecordError(TaxidmaError):
    """A record failed validation where a valid one is required."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class MalformedBundleError(TaxidmaError):
    """A STIX bundle document is structurally unusable."""


class UnknownExtensionVersionError(TaxidmaError):
    """A bundle declares the taxidma extension under an unexpected id."""


class RecordNotFoundError(TaxidmaError):
    """No record with the given id exists in the corpus."""


class MalformedFileError(TaxidmaError):
    """A record file exists but cannot be parsed into a record."""


class StorageFailureError(TaxidmaError):
    """The corpus directory cannot be read or written."""


class AbortedError(TaxidmaError):
    """The interactive encoder was quit before completion."""
