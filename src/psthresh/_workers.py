"""Worker processes for the Monte Carlo population levels.

A pool is a set of plain child interpreters (``sys.executable -c``) that
import this package from the parent's own source directory, with their
BLAS pinned to one thread.  Requests and replies are pickles over each
child's stdin and stdout: a request is a module-level function and its
arguments, a reply ``("ok", result)`` or ``("error", traceback text)``.
A child ignores SIGINT and exits when its stdin closes.

multiprocessing's spawn method is not used: it re-runs the caller's
``__main__``, which breaks scripts without a ``__main__`` guard, and its
children share one environment, so their BLAS threads cannot be pinned
without pinning the parent's.  Two processes each running a
multi-threaded BLAS on two cores were several times slower than one.

Importing this module starts nothing.  ``start`` starts this process's
pool, which is closed at interpreter exit; a pool that failed, or that
another process started (before an ``os.fork``), is never reused.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import subprocess
import sys
import threading
import traceback

#: seconds a closing worker gets to exit on its own before it is killed
CLOSE_TIMEOUT_S = 5.0

_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); from psthresh._workers import serve; serve()"

#: environment of a worker: one BLAS thread, as the pool already uses a
#: process per usable CPU
_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerPool:
    """Worker processes owned by the process that created the pool.

    A lock guards each request/response exchange, so threads may share
    the pool.  Any failure of an exchange other than an exception
    inside the called function (a worker that died, a broken or garbled
    pipe, an interrupt) closes the pool; later calls raise.
    """

    def __init__(self, workers: int):
        self.pid = os.getpid()
        self.procs = []
        self.closed = False
        self.lock = threading.Lock()
        atexit.register(self.close)
        self.grow(workers)

    @property
    def size(self) -> int:
        return len(self.procs)

    def grow(self, workers: int) -> None:
        """Start workers until there are at least `workers`."""
        # the directory holding this package, so that the workers run this
        # source tree and not another installed copy
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, **_ONE_THREAD)
        with self.lock:
            self._check_open()
            while len(self.procs) < workers:
                self.procs.append(
                    subprocess.Popen(
                        [sys.executable, "-c", _CHILD, root],
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        env=env,
                    )
                )

    def map(self, fn, arg_tuples: list) -> list:
        """[fn(*args) for args in arg_tuples], the i-th call in worker i.

        fn must be importable by name.  An exception in a call is raised
        here as RuntimeError with the worker's traceback text; a worker
        that dies raises RuntimeError naming its exit code.  An interrupt
        (KeyboardInterrupt) is raised as it is, after closing the pool.
        """
        with self.lock:
            self._check_open()
            if len(arg_tuples) > len(self.procs):
                raise ValueError("%d calls for %d workers" % (len(arg_tuples), len(self.procs)))
            procs = self.procs[: len(arg_tuples)]
            try:
                for proc, args in zip(procs, arg_tuples):
                    pickle.dump((fn, args), proc.stdin, pickle.HIGHEST_PROTOCOL)
                    proc.stdin.flush()
                replies = []
                for proc in procs:
                    replies.append(pickle.load(proc.stdout))
            except (OSError, EOFError, pickle.UnpicklingError) as exc:
                code = _exit_code(proc)
                self._shut(kill=True)
                raise RuntimeError(
                    "Monte Carlo worker %d ended with exit code %s; its pool is closed" % (proc.pid, code)
                ) from exc
            except BaseException:
                # an interrupt leaves replies unread: the pipes are out of step
                self._shut(kill=True)
                raise
        for status, value in replies:
            if status != "ok":
                raise RuntimeError("Monte Carlo worker raised:\n" + value)
        return [value for _, value in replies]

    def close(self) -> None:
        """Close the workers' stdin and wait for them to exit, killing
        any still running after CLOSE_TIMEOUT_S.  Does nothing in another
        process, such as a forked child, which must not end its parent's
        workers."""
        if self.pid == os.getpid() and not self.closed:
            self._shut(kill=False)

    def _check_open(self):
        if self.closed:
            raise RuntimeError("the Monte Carlo worker pool is closed")

    def _shut(self, kill: bool):
        self.closed = True
        for proc in self.procs:
            if kill:
                proc.kill()
            try:
                proc.stdin.close()
            except OSError:  # unflushed bytes for a worker that is gone
                pass
        for proc in self.procs:
            if _exit_code(proc) is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def _exit_code(proc):
    """The worker's exit code once it has exited, or None if it is still
    running after CLOSE_TIMEOUT_S."""
    try:
        return proc.wait(timeout=CLOSE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


# The pool is per process, not per call: workers take 0.2-0.45 s to
# start, so every solve in the process shares the first one's.
_pool = None
_pool_lock = threading.Lock()


def running():
    """This process's open pool, or None."""
    pool = _pool
    if pool is None or pool.closed or pool.pid != os.getpid():
        return None
    return pool


def start(workers: int) -> WorkerPool:
    """This process's pool, started or grown to at least `workers`."""
    global _pool
    with _pool_lock:
        pool = running()
        if pool is None:
            pool = _pool = WorkerPool(workers)
        else:
            pool.grow(workers)
        return pool


def serve():
    """A worker's loop: answer each request on stdin until it closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    # a stray print must not corrupt the reply stream
    sys.stdout = sys.stderr
    while True:
        try:
            fn, args = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = ("ok", fn(*args))
        except Exception:
            reply = ("error", traceback.format_exc())
        pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
        replies.flush()
