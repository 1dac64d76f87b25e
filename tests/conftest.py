import functools
import itertools
import os

import pytest


@functools.lru_cache(maxsize=None)
def s_n(n):
    return tuple(itertools.permutations(range(1, n + 1)))


@functools.lru_cache(maxsize=None)
def b_n(n):
    out = []
    for p in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(tuple(v * e for v, e in zip(p, signs)))
    return tuple(out)


@pytest.fixture(scope="session")
def groups():
    """Plain brute-force group enumerations, independent of iter_group."""
    return {"S": s_n, "B": b_n}


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process of the test runner behind,
    running or unreaped, as a sweep worker that outlives its sweep would."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind: "
                f"{f'pid {pid}, unreaped' if pid else 'one still running'}")
