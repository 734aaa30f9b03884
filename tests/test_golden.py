"""Golden certificate digests: the benchmark workloads' instances and the
ROADMAP grid points that fit tier 1 (small; medium is ``regular-l2``),
refuted at fixed seeds, must give the same certificate bytes.  Oracle
digests pin the checking side the same way: the ``soundness_check`` logs of
both verify-exhaustive instances, ``val_for_all_signs`` on the many-signs
instance and one Monte Carlo ``expected_val`` (k=17, above the exhaustive
sign limit).

Each digest is the sha256 of the certificate as canonical JSON (sorted keys,
no whitespace, Fractions as floats) without its ``meta`` block, the rule
``perfbench/harness.py`` uses.  The instances are generated at seed 1 and
refuted with epsilon=0.1, gamma=8, trials=50 and refute seed 7, in process
and on one thread.  The pins were taken with numpy 2.4 and scipy 1.17;
another BLAS or LAPACK build may round differently.

A change that is meant to move certificate or oracle bytes updates the pins
and names them in CHANGES.md.  To print the current digests in this file's
format:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json

import pytest

from kikuchi.instances import (
    expected_val,
    generate_planted_linear_instance,
    generate_random_matching_instance,
    val_for_all_signs,
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


ORACLE_GOLDEN = {
    "soundness/verify-exhaustive/random":
        "0d83c3ccd361ef52107e788c87adf703521e1e333903cdf7a9ef07ab2caf5049",
    "soundness/verify-exhaustive/planted":
        "6e1db91287e9b83af941ac8bd563b3ff6ed51a109fb98cb4ff689b90949fcd3e",
    "val_for_all_signs/many-signs":
        "afdf449c5c4915fd8ba8f32b2ab26938307d9507c7cabdeb703ae5b71ecc532e",
    "expected_val/n16-k17-trials50-seed3":
        "2c7d096d4b1e9bc4b105158350637dfdd72467e7f6d10ae711f4a1207789698a",
}


def digest(cert: dict) -> str:
    """sha256 of canonical JSON with the ``meta`` block removed."""
    body = {k: v for k, v in cert.items() if k != "meta"}
    return value_digest(body)


def value_digest(value) -> str:
    """sha256 of ``value`` as canonical JSON."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=float)
    return hashlib.sha256(text.encode()).hexdigest()


def instance(name: str):
    planted, n, k, delta, _ = INSTANCES[name]
    if planted:
        return generate_planted_linear_instance(n, 3, k, delta, 1)[0]
    return generate_random_matching_instance(n, 3, k, delta, 1)


def refutation(name: str):
    return refute_full(instance(name), ell=INSTANCES[name][4], threads=1, **REFUTE)


def certificate(name: str) -> dict:
    return refutation(name).certificate


def oracle_value(name: str):
    """The JSON value an ``ORACLE_GOLDEN`` entry pins."""
    kind, _, rest = name.partition("/")
    if kind == "soundness":
        return refutation(rest).soundness_check()
    if kind == "val_for_all_signs":
        return val_for_all_signs(instance(rest)).tolist()
    inst = generate_random_matching_instance(16, 3, 17, 0.25, 1)
    return list(expected_val(inst, trials=50, seed=3))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_certificate_digest_is_pinned(name):
    assert digest(certificate(name)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDEN))
def test_oracle_digest_is_pinned(name):
    assert value_digest(oracle_value(name)) == ORACLE_GOLDEN[name]


if __name__ == "__main__":
    for name in INSTANCES:
        print(f'    "{name}":\n        "{digest(certificate(name))}",')
    print()
    for name in ORACLE_GOLDEN:
        print(f'    "{name}":\n        "{value_digest(oracle_value(name))}",')
