"""D104 clean: membership tests are fine; iteration is sorted or listed."""


def charge(owners, stats):
    seen = set()
    for owner in owners:
        if owner in seen:
            continue
        seen.add(owner)
        stats[owner] += 1
    return [core for core in sorted(seen)]


def enqueue(queue, first, second):
    pending = {first, second}
    for x in sorted(pending):
        queue.append(x)
