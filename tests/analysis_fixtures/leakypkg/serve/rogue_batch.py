"""Serve-side fixture: a wall clock stamping a micro-batch.

``stamp_batch`` reads the wall clock inside ``serve/`` — DET001 must
fire, proving the determinism scope covers the serving subsystem.
"""

import time


def stamp_batch(batch: list) -> float:
    return time.time()
