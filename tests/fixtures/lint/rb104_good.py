"""Fixture: RB104 must stay quiet — complete, registered protocol classes.

Exercises the intermediate-base exemption too: ``FixtureBase`` provides the
bookkeeping half, the registered leaf provides the ordering half, and only
the leaf is judged for completeness.
"""


class FixtureBase(ConcurrencyController):  # noqa: F821 - fixture, never imported
    """Intermediate base (like WorkspaceController): judged at its leaves."""

    def buffered_writes(self, txn_id):
        return {}

    def commit(self, txn_id, versions):
        pass

    def abort(self, txn_id):
        pass

    def doom(self, txn_id):
        pass

    def is_doomed(self, txn_id):
        return False

    def active_transactions(self):
        return frozenset()

    def clear(self):
        pass


class FullCcp(FixtureBase):
    name = "FULL"

    def read(self, txn_id, ts, item):
        return self.store.read(item)

    def prewrite(self, txn_id, ts, item, value):
        return self.store.version(item)


class PlainHelper:
    """Not a protocol: same method names, no interface base — exempt."""

    def run(self, ctx):
        return ctx


register_ccp("FULL", FullCcp)  # noqa: F821 - fixture, never imported
