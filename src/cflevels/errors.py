"""Exception types shared across the package."""


class CfLevelsError(Exception):
    """Base class for all library errors."""


class OutOfScaleRatingError(CfLevelsError):
    """A rating value lies outside the declared rating scale."""


class UnknownUserError(CfLevelsError):
    """A user identifier is not present in the matrix."""


class EmptyInputError(CfLevelsError):
    """A metric was requested over an empty list of prediction pairs."""


class TooFewUsersError(CfLevelsError):
    """The dataset has too few users to derive adjustment levels."""


class TooFewItemsError(CfLevelsError):
    """The dataset has too few items to derive adjustment levels."""


class MalformedLineError(CfLevelsError):
    """An input line could not be parsed; the message carries the line number."""


class ConfigError(CfLevelsError):
    """Invalid experiment configuration (bad flag value, bad config key)."""
