"""Shared helpers: independent oracles the implementation must agree with."""

import os
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from kikuchi.instances import XorInstance, eval_phi, eval_psi_bipartite

# subprocess tests run ``python -m kikuchi.cli``; let them find the sources
# that pytest's ``pythonpath`` setting puts on sys.path
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def slow_brute_force(inst, b):
    """Exhaustive scan via plain polynomial evaluation (independent of the
    popcount-vectorized oracle)."""
    best = None
    if isinstance(inst, XorInstance):
        for xs in product((-1, 1), repeat=inst.n):
            v = eval_phi(inst, b, list(xs))
            best = v if best is None else max(best, v)
    else:
        for xs in product((-1, 1), repeat=inst.n):
            for ys in product((-1, 1), repeat=inst.p_size):
                v = eval_psi_bipartite(inst, b, list(xs), list(ys))
                best = v if best is None else max(best, v)
    return best


def count_edges_by_scan(n, ell, c_set, t_size):
    """Independent count of {S in C([n], ell) : |S (+) C| == t_size}, via
    bitmask popcounts over the whole subset space."""
    cmask = 0
    for v in c_set:
        cmask |= 1 << v
    cnt = 0
    for sub in combinations(range(n), ell):
        m = 0
        for v in sub:
            m |= 1 << v
        if (m ^ cmask).bit_count() == t_size:
            cnt += 1
    return cnt


def random_sets(rng, n, count, smax=4):
    out = []
    for _ in range(count):
        size = int(rng.integers(1, smax + 1))
        out.append(sorted(rng.choice(n, size=min(size, n), replace=False).tolist()))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
