"""Fixture: RB102 must fire — a wait-for walk in the order of an int set.

Shaped like a lock manager's deadlock search: each node's blockers come
back as a ``set[int]``, so the walk visits them in the order of the ids'
values, and shifting every id by a constant can change the victim.
Never imported; analyzed as source only.
"""


class Locks:
    def __init__(self):
        self.waits: dict[int, list[int]] = {}

    def blockers_of(self, txn: int) -> set[int]:
        return set(self.waits.get(txn, ()))

    def find_victim(self, start: int):
        path = [start]
        pending = [iter(self.blockers_of(start))]  # RB102: set-returning method
        while pending:
            for succ in pending[-1]:
                if succ == start:
                    return max(path)
                path.append(succ)
                pending.append(iter(self.blockers_of(succ)))  # RB102
                break
            else:
                path.pop()
                pending.pop()
        return None

    def wound(self, txn: int):
        blockers = self.blockers_of(txn)
        return [blocker for blocker in list(blockers)]  # RB102: list(...) of a set name
