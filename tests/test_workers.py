"""Tests for the Monte Carlo worker processes: a level split over
workers is bit-identical to one process, and the pool's lifecycle fails
loudly.  Every wait on a thread or process has a timeout; a hung pipe is
caught by pytest's faulthandler_timeout."""

import os
import platform
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import psthresh
from psthresh import _workers, threshold
from psthresh.threshold import (
    McConfig,
    concat_threshold_mc,
    model_level0,
    one_type_dist,
    _level_draws,
    _level_ranges,
    _level_rows,
    _mc_first_level,
    _mc_level,
    _sector_rows,
    _worker_count,
)

SRC = str(Path(psthresh.__file__).resolve().parent.parent)
TIMEOUT_S = 120

#: a population of 16 blocks of 128 rows: 1000 in-process rows would not split
SPLIT = McConfig(population=2000, levels=8, seed=5)


def _run_python(*args):
    """Run a fresh interpreter that imports this source tree."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=TIMEOUT_S
    )


#: the row functions of both kernels
ROWS = (_level_rows, _sector_rows)


def _level2_population(config, rows=_level_rows):
    """The population after level 1 of a flow near threshold on the
    kernel of `rows`."""
    if rows is _sector_rows:
        return _mc_level(np.full(config.population, 0.1096), config, 1)
    return _mc_first_level(model_level0("knill")(0.0688), config)


def test_worker_count_from_cpus_and_population(monkeypatch):
    for cpus, pop, want in [
        (4, 10_000, 3),  # 3 workers of at least 12 * 256 rows
        (2, 10_000, 2),
        (64, 10_000, 3),
        (4, 24 * 256, 2),
        (4, 23 * 256, 0),  # one worker would only add traffic
        (1, 10_000, 0),
    ]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda _: set(range(cpus)))
        assert _worker_count(pop) == want, (cpus, pop)


@pytest.mark.parametrize("pop", [2000, 7 * 256, 3])
def test_level_ranges_are_even_rows(pop):
    for parts in (1, 2, 3):
        ranges = _level_ranges(pop, parts)
        assert len(ranges) == parts
        assert ranges[0][0] == 0 and ranges[-1][1] == pop
        assert all(b == c for (_, b), (c, _) in zip(ranges, ranges[1:]))
        sizes = [b - a for a, b in ranges]
        assert max(sizes) - min(sizes) <= 1
    assert _level_ranges(10_000, 2) == [(0, 5000), (5000, 10_000)]


# 2000 rows are 15 blocks and an 80-row tail; a range may start inside a
# block, so the blocks of a range are not those of the whole level
@pytest.mark.parametrize(
    "edges",
    [
        (0, 256, 2000),
        (0, 1792, 2000),
        (0, 512, 1280, 2000),
        (0, 256, 512, 768, 2000),
        (0, 1, 3, 1000, 1999, 2000),
    ],
)
def test_split_level_matches_one_process(edges):
    for rows in ROWS:
        popn = _level2_population(SPLIT, rows)
        for level in (2, 5):
            parts = [rows(popn, SPLIT.seed, level, a, b) for a, b in zip(edges, edges[1:])]
            np.testing.assert_array_equal(np.concatenate(parts), _mc_level(popn, SPLIT, level))


def test_level_draws_stream_layout():
    # seven permutations of the parents, one a column, then the permuted
    # strata and one offset of the syndrome uniforms, from the (seed,
    # level) stream
    idx, u = _level_draws(500, 5, 3)
    rng = np.random.default_rng((5, 3))
    assert idx.dtype == np.int64 and idx.shape == (500, 7)
    np.testing.assert_array_equal(idx, np.stack([rng.permutation(500) for _ in range(7)], axis=1))
    np.testing.assert_array_equal(u, (rng.permutation(500) + rng.random()) / 500)
    # each individual is a parent exactly 7 times, and each stratum
    # [k/pop, (k+1)/pop) holds exactly one uniform
    np.testing.assert_array_equal(np.bincount(idx.ravel(), minlength=500), np.full(500, 7))
    np.testing.assert_array_equal(np.bincount(np.floor(u * 500).astype(np.int64), minlength=500), np.ones(500))
    assert ((0.0 <= u) & (u < 1.0)).all()


def test_level_draws_are_cached_read_only():
    idx, u = _level_draws(2000, 5, 3)
    again = _level_draws(2000, 5, 3)
    assert again[0] is idx and again[1] is u
    for arr in (idx, u):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    # another seed's stream is another entry
    assert _level_draws(2000, 6, 3)[0] is not idx
    maxsize = _level_draws.cache_info().maxsize
    assert maxsize is not None
    for level in range(maxsize + 2):
        _level_draws(3, 9, level)
    assert _level_draws.cache_info().currsize <= maxsize


def test_level_draws_keep_every_level_of_a_default_flow():
    # a probe past 16 levels leaves every level it drew for the next probe;
    # with 16 entries, 20 levels in turn evicted each before its reuse
    assert _level_draws.cache_info().maxsize == McConfig().levels
    for level in range(1, 21):
        _level_draws(50, 4, level)
    before = _level_draws.cache_info()
    for level in range(1, 21):
        _level_draws(50, 4, level)
    after = _level_draws.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (20, 0)


def test_worker_pipes_take_a_level_request(worker_pool):
    fcntl = pytest.importorskip("fcntl")
    get_size = getattr(fcntl, "F_GETPIPE_SZ", None)
    if get_size is None:
        pytest.skip("no F_GETPIPE_SZ on this platform")
    for proc in worker_pool.procs:
        for pipe in (proc.stdin, proc.stdout):
            assert fcntl.fcntl(pipe.fileno(), get_size) == _workers._PIPE_BYTES


def test_pool_level_matches_one_process(worker_pool):
    for rows in ROWS:
        popn = _level2_population(SPLIT, rows)
        for level in range(2, 6):
            want = _mc_level(popn, SPLIT, level)
            for parts in (2, 3):
                np.testing.assert_array_equal(_mc_level(popn, SPLIT, level, worker_pool, parts), want)
            calls = [(popn, SPLIT.seed, level, a, b) for a, b in [(0, 256), (256, 512), (512, 2000)]]
            np.testing.assert_array_equal(np.concatenate(worker_pool.map(rows, calls)), want)
            popn = want


#: a worker's minor page faults after each of two runs of the same pooled
#: half level (population 10^4, two workers) of a one-type flow
_HALF_LEVEL_FAULTS = (
    "[(t._sector_rows(popn, 1, 2, 0, 5000), res.getrusage(res.RUSAGE_SELF).ru_minflt)[1]"
    " for t, np, res in [(__import__('psthresh.threshold').threshold, __import__('numpy'), __import__('resource'))]"
    " for popn in [np.full(10_000, 0.1096)] for _ in range(2)]"
)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap settings are glibc's")
def test_repeated_half_level_faults_in_no_pages(worker_pool):
    # the worker's heap keeps the pages of a level's temporaries for the next
    ((first, second),) = worker_pool.map(eval, [(_HALF_LEVEL_FAULTS,)])
    assert second == first


def test_worker_runs_the_parents_package(worker_pool):
    # a benchmark of another source tree must not time an installed copy
    (got,) = worker_pool.map(eval, [("__import__('psthresh').__file__",)])
    assert got == psthresh.__file__


def test_worker_exception_is_raised_with_its_traceback(worker_pool):
    with pytest.raises(RuntimeError, match="(?s)Traceback.*ZeroDivisionError"):
        worker_pool.map(eval, [("1",), ("1 / 0",)])
    # the exchange completed, so the pool stays in use
    assert worker_pool.map(eval, [("2 + 2",)]) == [4]


def test_worker_ignores_sigint(worker_pool):
    worker_pool.map(eval, [("0",)] * worker_pool.size)  # every worker is serving
    os.kill(worker_pool.procs[0].pid, signal.SIGINT)
    assert worker_pool.map(eval, [("1",)] * worker_pool.size) == [1] * worker_pool.size


def test_closed_workers_exit():
    pool = _workers.WorkerPool(2)
    assert pool.map(eval, [("1",), ("2",)]) == [1, 2]
    pool.close()
    assert [proc.returncode for proc in pool.procs] == [0, 0]
    with pytest.raises(RuntimeError, match="closed"):
        pool.map(eval, [("1",)])


def test_start_keeps_the_running_pool(monkeypatch):
    # a later, larger solve splits over the workers of the first
    monkeypatch.setattr(_workers, "_pool", None)
    pool = _workers.start(2)
    try:
        assert _workers.start(3) is pool and pool.size == 2
        for rows in ROWS:
            popn = _level2_population(SPLIT, rows)
            want = _mc_level(popn, SPLIT, 2)
            np.testing.assert_array_equal(_mc_level(popn, SPLIT, 2, pool, pool.size), want)
    finally:
        pool.close()


class _Interrupt:
    """An argument whose pickling is interrupted, as by Ctrl-C."""

    def __reduce__(self):
        raise KeyboardInterrupt


def test_interrupted_exchange_closes_the_pool():
    # worker 0 has a request whose reply is never read: the pool is out of step
    pool = _workers.WorkerPool(2)
    with pytest.raises(KeyboardInterrupt):
        pool.map(eval, [("1",), (_Interrupt(),)])
    assert pool.closed
    assert all(proc.returncode is not None for proc in pool.procs)
    with pytest.raises(RuntimeError, match="closed"):
        pool.map(eval, [("1",)])


def _force_split(monkeypatch):
    """Split levels of SPLIT's population over two workers on any machine."""
    monkeypatch.setattr(threshold, "_worker_count", lambda pop: 2 if pop >= 1000 else 0)


def test_killed_worker_raises_and_next_solve_matches(monkeypatch):
    _force_split(monkeypatch)
    want = concat_threshold_mc(one_type_dist, 0.05, 0.18, SPLIT, tol=0.02)
    pool = _workers.running()
    assert pool is not None and pool.size >= 2

    def killing(p):
        victim = pool.procs[1]
        victim.kill()
        victim.wait(timeout=TIMEOUT_S)
        return one_type_dist(p)

    with pytest.raises(RuntimeError, match="exit code -9"):
        concat_threshold_mc(killing, 0.05, 0.18, SPLIT, tol=0.02)
    assert pool.closed and _workers.running() is None
    assert all(proc.poll() is not None for proc in pool.procs)
    assert concat_threshold_mc(one_type_dist, 0.05, 0.18, SPLIT, tol=0.02) == want
    assert _workers.running() not in (None, pool)


def test_threads_solving_at_once_match_serial(monkeypatch):
    _force_split(monkeypatch)
    configs = [McConfig(population=2000, levels=8, seed=seed) for seed in (5, 6, 7)]
    serial = [concat_threshold_mc(one_type_dist, 0.05, 0.18, c, tol=0.01) for c in configs]
    got = [None] * len(configs)

    def solve(i):
        got[i] = concat_threshold_mc(one_type_dist, 0.05, 0.18, configs[i], tol=0.01)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(configs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=TIMEOUT_S)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert got == serial


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_does_not_reuse_workers(monkeypatch):
    _force_split(monkeypatch)
    concat_threshold_mc(one_type_dist, 0.05, 0.18, SPLIT, tol=0.05)
    pool = _workers.running()
    pid = os.fork()
    if pid == 0:  # the child may not use, nor close, its parent's workers
        ok = _workers.running() is None
        pool.close()
        os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert _workers.running() is pool
    assert pool.map(eval, [("1",), ("2",)]) == [1, 2]


def test_unguarded_script_runs_once(tmp_path):
    # workers are fresh interpreters, not a re-run of the caller's __main__
    script = tmp_path / "solve.py"
    script.write_text(textwrap.dedent("""
        from psthresh import _workers
        from psthresh.threshold import McConfig, concat_threshold_mc, one_type_dist
        config = McConfig(population=6144, levels=8, seed=5)
        print(round(concat_threshold_mc(one_type_dist, 0.05, 0.18, config, tol=0.02), 6))
        pool = _workers.running()
        print("workers", pool.size if pool else 0)
    """))
    out = _run_python(str(script))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2
    assert lines[1] == "workers %d" % _worker_count(6144)


def test_cheap_requests_start_no_worker():
    # importing, a hashing request, a code map and a lone verdict stay in
    # one process and never import the worker module (or subprocess)
    out = _run_python("-c", textwrap.dedent("""
        import os, sys
        import psthresh
        from psthresh import cli, codes, threshold
        cli.main(["hashing", "--model", "knill"])
        codes.first_level_fidelity([0.97, 0.01, 0.01, 0.01])
        threshold.mc_verdict(threshold.one_type_dist(0.05), threshold.McConfig(population=6144, levels=3))
        print(sorted({"psthresh._workers", "subprocess"} & set(sys.modules)))
        try:
            os.waitpid(-1, os.WNOHANG)
            print("a child process")
        except ChildProcessError:
            print("no child process")
    """))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[1:] == ["[]", "no child process"]
