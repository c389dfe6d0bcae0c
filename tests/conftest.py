import contextlib
import signal

import numpy as np
import pytest

from qclattice import CipherParams, CipherSession, keygen, rdf_search
from qclattice.lattice import LatticeCtx

PAPER_PARAMS = CipherParams(b=43, n0=6, dv=3, q=43, L=16, d=61)


@pytest.fixture(scope="session")
def paper_key():
    return keygen(PAPER_PARAMS, 1)


@pytest.fixture(scope="session")
def paper_lattice(paper_key):
    return CipherSession(paper_key).lattice


@pytest.fixture(scope="session")
def toy_key():
    return keygen(CipherParams(b=13, n0=2, dv=3, q=13, L=4, d=8), 42)


@pytest.fixture(scope="session")
def toy_lattice():
    # n = 4: small enough for exhaustive sweeps of the whole input box
    code = rdf_search(2, 2, 1, rng_seed=0)
    return LatticeCtx.from_code(code, 2)


def random_message(rng: np.random.Generator, n: int, L: int) -> np.ndarray:
    m = np.empty(n, dtype=np.int64)
    m[0::2] = rng.integers(0, L, size=n // 2)
    m[1::2] = rng.integers(-L, 0, size=n // 2)
    return m


class DeadlineExceeded(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded in the block once it has run for ``seconds``.

    Turns a hang into a test failure (SIGALRM, so main thread only).
    """
    def fire(signum, frame):
        raise DeadlineExceeded(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
