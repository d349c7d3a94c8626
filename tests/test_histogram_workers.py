"""Histograms of distinct arrangements drawn by forked workers.

`descent_histograms` may spread its jobs over one process per usable CPU.
These tests pin that the number of processes never shows in a result or
a cache file, that no worker outlives the call, that a worker which does
not report leaves its jobs to the caller, and which calls never fork.
"""

from __future__ import annotations

import errno
import os
import signal
import time

import pytest

from riffmix import descentpoly, workers
from riffmix.cli import main
from riffmix.deck import Deck, parse_deck
from riffmix.descentpoly import _BLOCK_SAMPLES, mc_descent_histogram
from riffmix.tvd import FIXED_SOURCE, custom_scenario, mc_tvd_curve
from riffmix.workers import descent_histograms

# Every label of the first deck takes permutation tables; the 8-card label
# of the second is drawn as insertion codes.
DECKS = ("1^2,2^2,3^2", "1^8,2^2")
SAMPLES = _BLOCK_SAMPLES + 1


@pytest.fixture
def forks(monkeypatch):
    """One entry per `os.fork` call made so far."""
    calls = []
    fork = os.fork

    def counting():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


def _cpus(monkeypatch, n):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: n)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _curve(deck, cache_dir=None, k=6, samples=SAMPLES):
    return mc_tvd_curve(
        custom_scenario(deck, FIXED_SOURCE),
        [1, 2, 4, 8],
        k=k,
        seed=21,
        backend="mc-histogram",
        hist_samples=samples,
        cache_dir=cache_dir,
    )


def _files(cache_dir):
    return {p.name: p.read_bytes() for p in sorted(cache_dir.iterdir())}


def _jobs(deck, count):
    """`count` (source, target, seed) jobs from `deck` to its first
    `count` rotations, which are distinct."""
    d1 = parse_deck(deck)
    targets = [Deck(d1.cards[i:] + d1.cards[:i]) for i in range(1, count + 1)]
    assert len(set(targets)) == count
    return [(d1, d2, 40 + i) for i, d2 in enumerate(targets)]


@pytest.mark.parametrize("deck", DECKS)
@pytest.mark.parametrize("cached", [False, True])
def test_values_and_cache_files_do_not_depend_on_the_cpu_count(
    monkeypatch, tmp_path, forks, deck, cached
):
    results = {}
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        cache_dir = tmp_path / str(cpus) if cached else None
        before = len(forks)
        curve = _curve(deck, cache_dir)
        assert len(forks) - before == cpus - 1
        results[cpus] = (
            [est.value for est in curve],
            [est.uninformed for est in curve],
            _files(cache_dir) if cached else None,
        )
        _assert_no_children()
    assert results[1] == results[2] == results[3]
    if cached:
        assert len(results[1][2]) >= 3


def test_histograms_are_those_drawn_one_by_one(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    jobs = _jobs(DECKS[0], 3)
    hists = descent_histograms(jobs, SAMPLES)
    assert len(forks) == 1
    assert hists == [mc_descent_histogram(*job[:2], SAMPLES, job[2]) for job in jobs]
    _assert_no_children()


@pytest.mark.parametrize("fork", ["missing", "failing"])
def test_without_a_fork_the_jobs_are_drawn_here(monkeypatch, fork):
    def out_of_processes():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    if fork == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", out_of_processes)
    _cpus(monkeypatch, 3)
    jobs = _jobs(DECKS[1], 3)
    hists = descent_histograms(jobs, SAMPLES)
    assert hists == [mc_descent_histogram(*job[:2], SAMPLES, job[2]) for job in jobs]


@pytest.mark.parametrize("how", ["exit", "kill"])
def test_a_worker_that_does_not_report_leaves_its_share_here(
    monkeypatch, tmp_path, forks, how
):
    _cpus(monkeypatch, 1)
    want = _curve(DECKS[0], tmp_path / "serial")
    parent = os.getpid()
    draw = descentpoly.mc_descent_histogram

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            if how == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return draw(*args, **kwargs)

    monkeypatch.setattr(descentpoly, "mc_descent_histogram", failing)
    _cpus(monkeypatch, 3)
    assert _curve(DECKS[0], tmp_path / "forked") == want
    assert len(forks) == 2
    assert _files(tmp_path / "forked") == _files(tmp_path / "serial")
    _assert_no_children()


def test_an_error_here_stops_and_reaps_the_workers(monkeypatch, tmp_path, forks):
    parent = os.getpid()
    started, unwound = tmp_path / "started", tmp_path / "unwound"

    def stuck(*args, **kwargs):
        if os.getpid() != parent:
            try:
                started.write_text("")
                time.sleep(60)
            finally:
                unwound.write_text("")
        while not started.exists():
            time.sleep(0.01)
        raise RuntimeError("drawing failed")

    monkeypatch.setattr(descentpoly, "mc_descent_histogram", stuck)
    _cpus(monkeypatch, 2)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="drawing failed"):
        descent_histograms(_jobs(DECKS[0], 2), SAMPLES)
    assert time.perf_counter() - start < 30
    assert len(forks) == 1
    _assert_no_children()
    # The stopped worker ran its cleanup, as a cache store's would.
    assert unwound.exists()


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_a_cap_error_exits_3_with_the_serial_message(monkeypatch, capsys, forks):
    # An explicit fit window too narrow for the fit degree.
    argv = ["tvd", "--deck", DECKS[0], "--kind", "fixed-source", "--method"]
    argv += ["mc-hist", "--extrapolate", "--window", "0..1", "--shuffles", "1..3"]
    argv += ["--k", "5", "--hist-samples", str(SAMPLES)]
    _cpus(monkeypatch, 1)
    serial = _run(capsys, *argv)
    assert serial[0] == 3 and "a degree-4 fit needs at least 6" in serial[2]
    _cpus(monkeypatch, 2)
    assert _run(capsys, *argv) == serial
    assert len(forks) == 1
    _assert_no_children()


def test_a_cap_error_in_a_worker_is_raised_here(monkeypatch, capsys, forks):
    from riffmix.errors import CapExceededError

    draw = descentpoly.mc_descent_histogram

    def capped(d1, d2, samples, seed, cache_dir=None):
        if d1 != d2:
            raise CapExceededError(f"histogram {seed} is over the cap")
        return draw(d1, d2, samples, seed, cache_dir)

    monkeypatch.setattr(descentpoly, "mc_descent_histogram", capped)
    _cpus(monkeypatch, 2)
    # The first job, the caller's, draws; the second, the worker's, fails.
    jobs = _jobs(DECKS[0], 2)
    jobs[0] = (jobs[0][0], jobs[0][0], jobs[0][2])
    with pytest.raises(CapExceededError, match=f"histogram {jobs[1][2]} is over"):
        descent_histograms(jobs, SAMPLES)
    assert len(forks) == 1
    _assert_no_children()


def test_an_unusable_cache_dir_exits_2_before_any_fork(
    monkeypatch, capsys, tmp_path, forks
):
    blocker = tmp_path / "file"
    blocker.write_text("")
    _cpus(monkeypatch, 2)
    code, out, err = _run(
        capsys, "tvd", "--deck", DECKS[0], "--kind", "fixed-source", "--method",
        "mc-hist", "--shuffles", "1", "--k", "5", "--hist-samples", str(SAMPLES),
        "--cache-dir", str(blocker / "x"),
    )
    assert (code, out) == (2, "")
    assert str(blocker / "x") in err
    assert forks == []


def test_calls_that_never_fork(monkeypatch, tmp_path, forks):
    _cpus(monkeypatch, 2)
    cache_dir = tmp_path / "cache"
    _curve(DECKS[0], cache_dir)
    assert len(forks) == 1
    # Every histogram cached.
    _curve(DECKS[0], cache_dir)
    # One histogram left to draw.
    files = sorted(cache_dir.iterdir())
    files[0].unlink()
    _curve(DECKS[0], cache_dir)
    assert sorted(cache_dir.iterdir()) == files
    # Histograms smaller than one block.
    _curve(DECKS[0], samples=_BLOCK_SAMPLES - 1)
    assert len(forks) == 1
    _assert_no_children()
