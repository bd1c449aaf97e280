"""Exception types shared across the package."""


class ActimetricsError(Exception):
    """Base class for all package errors."""


class ConfigError(ActimetricsError):
    """Configuration failed validation."""


class EpochTooShort(ConfigError):
    """The configured epoch holds fewer than 2 samples at a recording's rate."""


class EmptySeries(ActimetricsError):
    """Series has no samples, or fewer samples than one epoch."""


class InvalidRecording(ActimetricsError):
    """Recording failed validation; the message lists the findings."""


class InvalidCutoffs(ConfigError):
    """Filter cutoffs violate 0 < f_low < f_high < Nyquist (at a recording's rate)."""


class UnstableDesign(ActimetricsError):
    """Designed filter has poles on or outside the unit circle."""


class SeriesMismatch(ActimetricsError):
    """Series lengths, kinds, or sample rates are incompatible."""


class InapplicableMetric(ActimetricsError):
    """The metric is not defined for the requested dataset kind."""


class MissingDataset(ActimetricsError):
    """A dataset kind required by the variant is absent from the input map."""


class RecordingTooShort(ActimetricsError):
    """Recording is shorter than the requested analysis window."""


class LabelMismatch(ActimetricsError):
    """Subjects do not share an identical set of variant labels."""


class SignalTooShort(ActimetricsError):
    """Signal is shorter than one spectral-estimation segment."""


class ParseError(ActimetricsError):
    """A text input failed to parse; ``line`` is the 1-based line number."""

    def __init__(self, line: int, message: str):
        # both in ``args``, so that pickling (a worker's exception crossing to
        # the parent process) rebuilds it
        super().__init__(line, message)
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


class WorkerDied(ActimetricsError):
    """A ``--jobs`` worker process ended without returning its subject's result.

    The message names the first subject without a result; no manifest is
    written.
    """


class UnreadableRecording(ActimetricsError):
    """A recording file could not be opened or read; the message gives the OS reason."""


class UnusableSubjectId(ActimetricsError):
    """A recording's subject id (its sidecar's, or its file stem) is no plain directory name."""


class MissingSampleRate(ActimetricsError):
    """No usable sample rate came from the argument, sidecar or file header.

    Raised when none is given, and when the one given is not a positive,
    finite number of hertz.
    """


class BadMagic(ActimetricsError):
    """Binary file does not start with the expected magic bytes."""


class VersionUnsupported(ActimetricsError):
    """Binary file declares a format version this reader does not support."""


class TruncatedPayload(ActimetricsError):
    """Binary payload holds fewer samples than its header declares."""


class UnrepresentableSampleRate(ActimetricsError):
    """The sample rate does not fit the binary header's whole deci-hertz field."""
