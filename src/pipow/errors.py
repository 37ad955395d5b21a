"""Exceptions shared across the package."""


class DomainError(ValueError):
    """An argument lies outside an operation's documented domain."""


class InfeasibleError(RuntimeError):
    """A request was refused before any work because its estimated work
    exceeds a stated ceiling (series.STEP_CEILING digit steps for every
    series request of the CLI).

    The message quotes the request and the ceiling, and `required` holds
    the estimate, so the CLI prints an actionable refusal instead of
    silently burning CPU.
    """

    def __init__(self, message: str, required=None):
        super().__init__(message)
        self.required = required
