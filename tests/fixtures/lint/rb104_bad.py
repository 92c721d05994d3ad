"""Fixture: RB104 must fire — incomplete and unregistered protocol classes.

Never imported; the undefined base-class names only matter to the AST.
"""

from typing import Generator


class HalfCcp(ConcurrencyController):  # noqa: F821 - fixture, never imported
    """RB104 x2: missing most required methods AND never registered."""

    name = "HALF"

    def read(self, txn_id, ts, item):
        return self.store.read(item)


class SilentAcp(CommitProtocol):  # noqa: F821 - fixture, never imported
    """RB104: implements run() but is never passed to register_acp."""

    name = "SILENT"

    def run(self, ctx) -> Generator:
        decision = yield None
        return decision
