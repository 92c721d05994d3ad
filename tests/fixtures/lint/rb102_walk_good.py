"""Fixture: the corrected counterpart of rb102_walk_bad — RB102 must stay quiet.

Blockers come back as the keys of an insertion-ordered dict, so the walk
follows the order the waits arose in, whatever the ids' values.
"""


class Locks:
    def __init__(self):
        self.waits: dict[int, list[int]] = {}

    def blockers_of(self, txn: int) -> dict[int, None]:
        return dict.fromkeys(self.waits.get(txn, ()))

    def find_victim(self, start: int):
        path = [start]
        pending = [iter(self.blockers_of(start))]
        while pending:
            for succ in pending[-1]:
                if succ == start:
                    return max(path)
                path.append(succ)
                pending.append(iter(self.blockers_of(succ)))
                break
            else:
                path.pop()
                pending.pop()
        return None

    def wound(self, txn: int):
        blockers = self.blockers_of(txn)
        return [blocker for blocker in list(blockers)]
