"""Golden certificate digests: the benchmark workloads' instances and the
ROADMAP grid points that fit tier 1 (small; medium is ``regular-l2``),
refuted at fixed seeds, must give the same certificate bytes.

Each digest is the sha256 of the certificate as canonical JSON (sorted keys,
no whitespace, Fractions as floats) without its ``meta`` block, the rule
``perfbench/harness.py`` uses.  The instances are generated at seed 1 and
refuted with epsilon=0.1, gamma=8, trials=50 and refute seed 7, in process
and on one thread.  The pins were taken with numpy 2.4 and scipy 1.17;
another BLAS or LAPACK build may round differently.

A change that is meant to move certificate bytes updates the pins and names
them in CHANGES.md.  To print the current digests in this file's format:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json

import pytest

from kikuchi.instances import (
    generate_planted_linear_instance,
    generate_random_matching_instance,
)
from kikuchi.refute import refute_full

REFUTE = {"epsilon": 0.1, "gamma": 8.0, "trials": 50, "seed": 7}

# workload instance or ROADMAP grid point: (planted?, n, k, delta, ell), all
# q=3; "large" (n=24, k=8, l=2) takes about half a minute, too long for tier 1
INSTANCES = {
    "grid-small": (False, 16, 6, 0.25, 1),
    "regular-l2": (False, 20, 6, 0.25, 2),
    "many-signs": (False, 16, 12, 0.25, 1),
    "verify-exhaustive/random": (False, 20, 6, 0.25, 1),
    "verify-exhaustive/planted": (True, 20, 6, 0.16, 1),
}

GOLDEN = {
    "grid-small":
        "b9bcc582ba7d8a78ed628268b14c6add15b252d874fb6b1890aeb3c7c57677fb",
    "regular-l2":
        "0de0a2e2542194c84eaeac8871eb79ef1d67ce285a3718fd6c70fa7a862da556",
    "many-signs":
        "c5a32747cbcf925de32ee80d59c0acf020b44804ec7f8011a39dcc72c5f9be2e",
    "verify-exhaustive/random":
        "5a479cface68654f7b7f7ed0248e4a193bc183034da2eb8999e78d0f471254d0",
    "verify-exhaustive/planted":
        "f02925dbfc8d82f8240e43b53f9b082528ea8a409b0b05dce9286dc90335e277",
}


def digest(cert: dict) -> str:
    """sha256 of canonical JSON with the ``meta`` block removed."""
    body = {k: v for k, v in cert.items() if k != "meta"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), default=float)
    return hashlib.sha256(text.encode()).hexdigest()


def certificate(name: str) -> dict:
    planted, n, k, delta, ell = INSTANCES[name]
    if planted:
        inst, _ = generate_planted_linear_instance(n, 3, k, delta, 1)
    else:
        inst = generate_random_matching_instance(n, 3, k, delta, 1)
    return refute_full(inst, ell=ell, threads=1, **REFUTE).certificate


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_certificate_digest_is_pinned(name):
    assert digest(certificate(name)) == GOLDEN[name]


if __name__ == "__main__":
    for name in INSTANCES:
        print(f'    "{name}":\n        "{digest(certificate(name))}",')
