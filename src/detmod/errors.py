"""Exception types shared across the package."""


class DetmodError(Exception):
    """Base class for all errors raised by this package."""


class InputError(DetmodError, ValueError):
    """Arguments or file contents violate a documented precondition."""


class NotDeterminedError(DetmodError):
    """An operation required a determined module and got a counterexample.

    The offending covering pair is stored in ``witness``.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"module is not determined by the given set; witness pair {witness!r}")


# raised only by presentation.predecessor_colimit_map, which no verb calls
class ConsistencyError(DetmodError):
    """Two independent computations of the same fact disagreed.

    This always indicates a bug, never bad user input.
    """
