"""Sampled descent histograms of many pairs, drawn on every usable CPU.

Each histogram depends only on its (source, target, samples, seed), so
the histograms of distinct pairs can be drawn in separate processes and
come out byte for byte as if drawn one by one.  Processes, not threads:
every numpy call of the sampler holds the interpreter lock.  This module
loads only where many histograms are drawn at once (`mc-hist`).
"""

from __future__ import annotations

import marshal
import os
from typing import TYPE_CHECKING

from . import descentpoly
from .descentpoly import _BLOCK_SAMPLES, DescentHistogram, _stored_start

if TYPE_CHECKING:
    from collections.abc import Sequence
    from pathlib import Path
    from typing import BinaryIO

    from .deck import Deck


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def descent_histograms(
    jobs: Sequence[tuple[Deck, Deck, int]],
    samples: int,
    cache_dir: str | Path | None = None,
) -> list[DescentHistogram]:
    """`descentpoly.mc_descent_histogram(source, target, samples, seed,
    cache_dir)` for each (source, target, seed) job, in job order.

    Fully cached histograms are served first, loading no sampler.  When
    at least two are left to draw, each of at least `_BLOCK_SAMPLES`
    samples, and the process may run on two or more CPUs, they are drawn
    by `min(cpus, left)` processes: this one and workers it forks, each
    taking every so-many-th job.  A histogram depends only on its job, so
    the results are those of drawing the jobs one by one, whatever the
    number of processes.  A worker that does not report, whatever the
    cause, leaves its jobs to this process, which then fails as drawing
    them here fails.  Without `os.fork` the jobs are drawn here.
    """
    hists: list[DescentHistogram | None] = [None] * len(jobs)
    left = []
    for i, (d1, d2, seed) in enumerate(jobs):
        key, _, counts, completed = _stored_start(d1, d2, samples, seed, cache_dir)
        if completed == key.streams:
            hists[i] = DescentHistogram(d1, d2, tuple(counts), samples, seed)
        else:
            left.append(i)

    def draw(share: list[int]) -> None:
        # Looked up on `descentpoly` at each call, where tracers and tests
        # replace it.
        for i in share:
            d1, d2, seed = jobs[i]
            hists[i] = descentpoly.mc_descent_histogram(
                d1, d2, samples, seed, cache_dir
            )

    procs = min(_usable_cpus(), len(left))
    if procs < 2 or samples < _BLOCK_SAMPLES or not hasattr(os, "fork"):
        draw(left)
        return hists
    # Loaded once here, not once per worker: two processes importing
    # numpy at once each take twice as long.
    from . import tables  # noqa: F401

    mine, *shares = [left[w::procs] for w in range(procs)]
    workers: dict[int, tuple[BinaryIO, list[int]]] = {}
    try:
        for share in shares:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                # Out of processes: draw the share here.
                os.close(read_end)
                os.close(write_end)
                mine += share
                continue
            if pid == 0:
                # The worker leaves only through `os._exit`, so no exit
                # handler, buffered output or `finally` of the caller's
                # runs twice.  It calls no BLAS routine, the only user of
                # the one thread numpy starts.  Stopped by SIGTERM, it
                # unwinds, so a cache store in progress removes its
                # temporary file.
                status = 1
                try:
                    import signal

                    signal.signal(signal.SIGTERM, signal.default_int_handler)
                    os.close(read_end)
                    draw(share)
                    with os.fdopen(write_end, "wb") as out:
                        out.write(marshal.dumps([hists[i].counts for i in share]))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            workers[pid] = (os.fdopen(read_end, "rb"), share)
        draw(mine)
        for pid, (report, share) in list(workers.items()):
            with report:
                data = report.read()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            if status != 0:
                draw(share)
                continue
            for i, counts in zip(share, marshal.loads(data)):
                d1, d2, seed = jobs[i]
                hists[i] = DescentHistogram(d1, d2, counts, samples, seed)
    finally:
        # Only an exception leaves workers here; stop and reap them.
        for pid, (report, _) in workers.items():
            from signal import SIGTERM

            report.close()
            try:
                os.kill(pid, SIGTERM)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    return hists


__all__ = ["descent_histograms"]
