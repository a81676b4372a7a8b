"""Exception types shared across the toolkit."""


class CiteCascadeError(Exception):
    """Base class for all toolkit errors."""


class FormatError(CiteCascadeError):
    """Input file is unreadable or does not parse under the declared format."""


class UnknownPublicationError(CiteCascadeError):
    """A publication id could not be resolved in the record store.

    Distinct from "found, but with zero references/citers".
    """

    def __init__(self, pub_id: str):
        super().__init__(f"unknown publication id: {pub_id}")
        self.pub_id = pub_id


class EmptyDatasetError(CiteCascadeError):
    """An operation that needs a non-empty dataset received an empty one."""


class ValidationError(CiteCascadeError):
    """Arguments or configuration violate an operation's preconditions."""


class UsageError(CiteCascadeError):
    """A command-line argument is malformed (exit code 2, like argparse errors)."""
