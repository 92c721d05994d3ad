"""Fixture: the corrected counterpart of rb103_ccp_bad — RB103 must stay quiet.

``read`` and ``prewrite`` are plain calls: each returns its answer, or a
``Wait`` on the lock event together with the call that continues it.
"""

from functools import partial


class PlainCcp(ConcurrencyController):  # noqa: F821 - fixture, never imported
    name = "PLAINCCP"

    def read(self, txn_id, ts, item):
        wait = self.locks.acquire(txn_id, ts, item, "S")
        if wait is not None:
            return wait_for(wait, partial(self.store.read, item))  # noqa: F821
        return self.store.read(item)

    def prewrite(self, txn_id, ts, item, value):
        self.workspace[item] = value
        return self.store.version(item)

    def buffered_writes(self, txn_id):
        return dict(self.workspace)

    def commit(self, txn_id, versions):
        pass

    def abort(self, txn_id):
        pass

    def doom(self, txn_id):
        pass

    def is_doomed(self, txn_id):
        return False

    def active_transactions(self):
        return set()

    def clear(self):
        pass


register_ccp("PLAINCCP", PlainCcp)  # noqa: F821 - keeps RB104 satisfied
