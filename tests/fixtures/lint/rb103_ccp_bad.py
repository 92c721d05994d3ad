"""Fixture: RB103 must fire — a CCP whose read/prewrite are generators.

The site takes what ``read``/``prewrite`` return as the answer, so a
generator hands it a generator object instead; an unreachable ``yield``
after the ``return`` makes a generator all the same.  Never imported; the
undefined names only matter to the AST.
"""

from typing import Generator


class GeneratorCcp(ConcurrencyController):  # noqa: F821 - fixture, never imported
    name = "GENCCP"

    def read(self, txn_id, ts, item) -> Generator:  # RB103: a generator
        yield self.locks.acquire(txn_id, ts, item, "S")
        return self.store.read(item)

    def prewrite(self, txn_id, ts, item, value):  # RB103: unreachable yield
        self.workspace[item] = value
        return self.store.version(item)
        yield

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


register_ccp("GENCCP", GeneratorCcp)  # noqa: F821 - keeps RB104 satisfied
