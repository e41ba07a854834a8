"""A pause of the cyclic garbage collector.

A cold request allocates its whole analysis, encodes it and stores
it: hundreds of thousands of new containers that stay alive until the
request ends.  A collection that runs meanwhile can free none of
them, yet traverses them all again, and each pass promotes them into
an older generation that the next full collection traverses once
more.  An analysis frees itself by reference counting when its last
user drops it (the object graph is a tree with weak back-edges; see
DESIGN.md), so the collector has nothing to do on this path.

:func:`gc_paused` switches the collector off for the duration of a
block and then restores the state it found: pauses nest, and a
collector that was already off stays off.  It never runs a collection
itself.  A process forked inside a pause starts with the collector
off; the daemon's workers switch it back on when they start.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Keep the cyclic collector off while the block runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
