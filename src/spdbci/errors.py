"""Exception hierarchy shared by all spdbci modules."""


class SpdBciError(Exception):
    """Base class for every error raised by this package."""


# --- file formats / persistence ---

class MalformedHeader(SpdBciError):
    pass


class DimensionMismatch(SpdBciError):
    pass


class NonFiniteValue(SpdBciError):
    pass


class IoFailure(SpdBciError):
    pass


class VersionMismatch(SpdBciError):
    pass


class ChecksumError(SpdBciError):
    pass


# --- filter bank ---

class InvalidBand(SpdBciError):
    pass


class UnstableDesign(SpdBciError):
    pass


class GaborViolation(SpdBciError):
    pass


class WindowTooLong(SpdBciError):
    pass


# --- SPD algebra ---

class NotPositiveDefinite(SpdBciError):
    pass


class ConvergenceFailure(SpdBciError):
    pass


# --- layers ---

class MissingForwardCache(SpdBciError):
    pass


class ShapeMismatch(SpdBciError):
    pass


class LabelOutOfRange(SpdBciError):
    pass


# --- training / evaluation ---

class NonFiniteLoss(SpdBciError):
    pass


class InsufficientData(SpdBciError):
    pass


class SchemaMismatch(SpdBciError):
    pass


class ConfigError(SpdBciError):
    pass
