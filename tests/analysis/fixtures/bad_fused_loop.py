"""R002/R003 fixture: an engine whose only event loop is a fused feed_batch.

It neither derives from ``Engine`` nor defines ``_process_event``; the
analyzer must still recognise it as an engine and walk its loop.
"""

import time


class FusedEngine:
    def __init__(self):
        self._open = set()

    def feed(self, element):
        return self.feed_batch((element,))

    def feed_batch(self, elements):
        out = []
        for element in elements:
            self._open.add((time.monotonic(), element))  # line 20: wall clock
            for entry in self._open:  # line 21: nondeterministic order
                out.append(entry)
        return out
