"""Exception types and file-text helpers shared across the toolkit.

Validation and domain problems subclass ValueError so plain try/except
ValueError keeps working; solver failures subclass RuntimeError. The CLI
maps everything except solver/internal failures to exit code 1.
"""

import csv
import io
from pathlib import Path


class PubTfpError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(PubTfpError, ValueError):
    """A technology, bundle, price, or scheme violates its invariants."""


class DomainError(PubTfpError, ValueError):
    """An operation was evaluated outside its mathematical domain."""


class NoConvergenceError(PubTfpError, RuntimeError):
    """A solver answer left its representable bracket or failed an identity check."""


class NoInteriorMpssError(PubTfpError):
    """The technology has no interior most-productive scale size on the ray."""


class AlreadyEfficientError(PubTfpError):
    """The starting input mix already satisfies the cost-minimizing condition."""


class PricesNotDominatedError(PubTfpError):
    """The after-side prices are not strictly lower in every component."""


class MarkupNotReducedError(PubTfpError):
    """The after-side markups are not strictly lower for every output."""


class ScenarioError(PubTfpError):
    """A scenario definition or scenario file is malformed."""


class PanelSchemaError(PubTfpError):
    """A panel file does not match the documented column schema."""


class SeriesError(PubTfpError):
    """A panel series violates ordering requirements (gaps, duplicates)."""


class MissingBaseYearError(SeriesError):
    """The requested base year is absent from a series."""


def _not_utf8(path: Path) -> str:
    """Say where a file that failed to decode stops being UTF-8.

    Text readers decode in chunks, so their error's offset is not the
    file's; the file is decoded again, whole, only on this error path.
    """
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return (
            f"{path} is not valid UTF-8: byte 0x{data[exc.start]:02x} at offset "
            f"{exc.start} ({exc.reason})"
        )
    return f"{path} is not valid UTF-8"


def _csv_cells(*cells: str) -> str:
    """Text cells as one CSV line without its end, quoted as the toolkit's writers quote them."""
    buffer = io.StringIO()  # the line end is cut, not left out: with "" csv would not quote "\n"
    csv.writer(buffer, lineterminator="\n").writerow(cells)
    return buffer.getvalue()[:-1]
