"""--jobs: a map over keys shared out among forked worker processes."""

from __future__ import annotations

import os


def _share(fn, keys):
    """fn over keys in order up to the first Exception: the results before
    it, and that exception or None."""
    results = []
    for key in keys:
        try:
            results.append(fn(key))
        except Exception as exc:
            return results, exc
    return results, None


def parallel_map(fn, keys, jobs):
    """[fn(k) for k in keys], shared out among up to `jobs` processes.

    Worker w computes keys[w::workers]: over verify-hook-formula's n-major
    keys, a worker keeps to the same primes when the number of primes is a
    multiple of the worker count, so its caches serve only its own keys.  The
    parent computes share 0 itself and forks a child for each other share,
    which sends its results back pickled through a pipe.  Each share stops at
    its first Exception; the parent reads every share, then raises the one at
    the lowest key index, as the serial loop would.  The CLI starts no
    threads, so forking it is safe; without os.fork the run is serial.
    """
    # every worker is forked up front, so ask for no more workers than there
    # are keys or CPUs this process may run on
    if not hasattr(os, "fork"):
        cpus = 1
    elif hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(jobs, len(keys), cpus)
    if workers <= 1:
        return [fn(k) for k in keys]
    # a serial run, the default, loads neither
    import pickle
    import signal

    children, running, lost = [], set(), []
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                # the child sends its share and exits: it never returns into
                # main, and flushes no buffer it inherited
                status = 1
                try:
                    os.close(read_end)
                    results, exc = _share(fn, keys[w::workers])
                    try:
                        pickle.loads(pickle.dumps(exc))
                    except Exception:
                        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                    with open(write_end, "wb") as pipe:
                        pickle.dump((results, exc), pipe)
                    status = 0
                finally:
                    os._exit(status)
            running.add(pid)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        shares = [_share(fn, keys[::workers])]
        for pid, pipe in children:
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            running.discard(pid)
            if status:
                lost.append(
                    f"worker {pid} ended without its results (wait status {status})"
                )
            else:
                shares.append(pickle.loads(data))
    finally:
        for _, pipe in children:
            pipe.close()
        # only a parent interrupted by something other than a share's
        # Exception leaves a child unreaped
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if lost:
        raise RuntimeError(lost[0])
    failed = [(w + len(res) * workers, exc) for w, (res, exc) in enumerate(shares) if exc]
    if failed:
        # the key indices differ, so min never compares two exceptions
        raise min(failed)[1]
    out = [None] * len(keys)
    for w, (res, _) in enumerate(shares):
        out[w::workers] = res
    return out
