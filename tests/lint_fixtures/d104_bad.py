"""D104: iterating hash-ordered sets in a simulation module."""


def charge(owners, stats):
    for owner in {owners[0], owners[1]}:
        stats[owner] += 1
    return [core for core in set(stats)]


class Engine:
    def enqueue(self):
        pending = {3, 1, 2}
        for item in pending:
            self.queue.append(item)
