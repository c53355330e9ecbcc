"""D104 clean: membership tests are fine; iteration is sorted or listed."""


def charge(owners, stats):
    seen = set()
    for owner in owners:
        if owner in seen:
            continue
        seen.add(owner)
        stats[owner] += 1
    return [core for core in sorted(seen)]


class Engine:
    def enqueue(self):
        pending = {3, 1, 2}
        for item in sorted(pending):
            self.queue.append(item)
