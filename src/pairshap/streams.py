"""Deterministic random substreams, and a worker thread that draws them ahead.

Every randomized routine derives its generator here so that a single master
seed reproduces the whole computation and distinct logical units (replicate,
retry, trial) never share a stream.  A long walk of sampled orders shuffles
its next block on `DrawAhead`'s worker while it walks the current one; each
generator is still drawn from in order, so the bits are those of one thread.
"""
from __future__ import annotations

import threading

import numpy as np


def derive_rng(seed, *key: int) -> np.random.Generator:
    """Return a PCG64 generator for the substream identified by `key`.

    `seed` is an integer master seed, a list of them (an entropy key, as
    experiment replicates use), a SeedSequence, or None (fresh OS entropy;
    only seeded runs are reproducible).  Extending the spawn key
    rather than reseeding keeps substreams statistically independent.
    """
    if isinstance(seed, np.random.SeedSequence):
        ss = np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + tuple(key)
        )
    else:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.default_rng(ss)


class DrawAhead:
    """One worker thread that shuffles a block of player orders while the caller walks the one before it.

    `permute(rng, out)` hands the worker one `rng.permuted(out, axis=1,
    out=out)` call, on a generator and a buffer the caller made and filled,
    and `wait()` blocks until it is done.  The worker runs nothing else: it
    calls no function of this package and makes no array, so every
    generator is derived, every buffer filled, and every walk, lookup and
    fold run on the caller's thread.  (A worker that derived generators or
    filled buffers took a malloc arena of its own, and raised peak RSS.)  A
    draw only pays beside numpy kernels that release the GIL, as the walk's
    do.  As a context manager the worker lives for one
    `with` block: leaving it, by return or by raise, waits for the draw in
    flight and joins the thread.
    """

    def __init__(self):
        self._job = None
        self._busy = False
        self._error = None
        self._posted = threading.Semaphore(0)
        self._done = threading.Semaphore(0)
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        while True:
            self._posted.acquire()
            if self._job is None:
                return
            rng, out = self._job
            try:
                rng.permuted(out, axis=1, out=out)
            except BaseException as error:  # re-raised on the caller's thread
                self._error = error
            self._done.release()

    def permute(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Hand the worker the shuffle of each row of `out` by rng, once the draw handed before it is done."""
        self.wait()
        self._job = (rng, out)
        self._busy = True
        self._posted.release()

    def wait(self) -> None:
        """Block until the draw in flight, if any, is done; re-raise what it raised."""
        if self._busy:
            self._done.acquire()
            self._busy = False
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def __enter__(self) -> "DrawAhead":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._busy:
            self._done.acquire()
        self._job = None
        self._posted.release()
        self._thread.join()
