"""Exception hierarchy shared across the toolkit."""


class FairQRError(Exception):
    """Base class for all toolkit errors."""


class UsageError(FairQRError, ValueError):
    """An option or parameter value outside its allowed range."""


class LineError(FairQRError):
    """An error at a numbered input line, prefixed `line N:` when known."""

    def __init__(self, message: str, line: int | None = None):
        self.detail = message  # without the line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class IngestionError(LineError):
    """Malformed corpus record, at its line when known."""


class SchemaError(FairQRError):
    """Group label or category not declared in the schema."""


class CorpusLookupError(FairQRError):
    """Unknown document id or category."""


class IndexBuildError(FairQRError):
    """Index construction failed (e.g. empty corpus)."""


class EmptyQueryError(FairQRError):
    """Query tokenized to nothing."""


class DegenerateExposureError(FairQRError):
    """Exposure requested over an empty ranked list."""


class NoTargetError(FairQRError):
    """No relevant documents to derive a fairness target from."""


class TemplateError(FairQRError):
    """Prompt template is missing a required placeholder."""


class RefinerError(FairQRError):
    """Refinement failed (transport, lexicon, or parse failure)."""


class ParseError(RefinerError):
    """Model response did not contain the refined-query marker."""


class LexiconError(RefinerError):
    """Lexicon is not subgroups mapped to keyword lists, or lacks one."""


class RunFileError(LineError):
    """Malformed TREC run or qrels line, at its line when known."""
