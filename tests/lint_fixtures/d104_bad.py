"""D104: iterating hash-ordered sets in a simulation module.

Set literals and constructors in the loop header, and a set bound to a
local first, then iterated: once storing each element, once where a
branch on the element changes state.
"""


def charge(owners, stats):
    for owner in {owners[0], owners[1]}:
        stats[owner] += 1
    return [core for core in set(stats)]


def enqueue(queue, first, second):
    pending = {first, second}
    for item in pending:
        queue.append(item)


def pick(state, first, second):
    candidates = set()
    candidates.add(first)
    candidates.add(second)
    for candidate in candidates:
        if candidate is not None:
            state.winner = candidate
            break
