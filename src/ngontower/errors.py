"""The two ways a run fails.

`UsageError`: input from outside the program -- an argument, a tower file --
is malformed or out of range.  `VerificationError`: a check of the derivation
failed.  Every exception class of the package derives from one of them, and
`cli.main` is the one place that turns them into exit codes (2 and 1).  They
share no base class, because no code handles both alike.
"""


class UsageError(ValueError):
    """Input from outside the program is malformed or out of range."""


class VerificationError(Exception):
    """A check of the derivation failed, at node `node_id` when one is given."""

    def __init__(self, message: str, node_id: int | None = None):
        super().__init__(message if node_id is None else f"node {node_id}: {message}")
        self.node_id = node_id
