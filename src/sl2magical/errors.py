"""Exception hierarchy shared across the package.

Every error raised on a bad input derives from DomainError so callers
(and the CLI exit-code mapping) can distinguish "you asked for something
malformed" from "required data is not available".
"""


class DomainError(ValueError):
    """Invalid mathematical input: bad rank, partition, labels, signs."""


class RankDomainError(DomainError):
    """Rank outside the supported window for a family."""


class InconsistentGradingError(DomainError):
    """A grading that is not the ad_h eigenspace grading of any sl2-triple."""


class MissingDataError(LookupError):
    """A computation needs curated data that is not present."""


class DatasetSchemaError(ValueError):
    """A curated-data file violates the record schema."""
