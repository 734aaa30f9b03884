"""Golden certificate digests: the benchmark workloads' instances, the
ROADMAP grid points that fit tier 1 (small; medium is ``regular-l2``) and
three q=5 and q=7 points at the branches where a route prunes no graph,
refuted at fixed seeds, must give the same certificate bytes.  Oracle
digests pin the checking side the same way: the ``soundness_check`` logs of
both verify-exhaustive instances, ``val_for_all_signs`` on the many-signs
instance and on its s=2 piece (n=16, |P|=2, k=12: the bipartite
constructor that ``decompose`` builds it with and the joint x, y scan), and
one Monte Carlo ``expected_val`` (k=17, above the exhaustive sign limit).
Decomposition digests pin ``DecomposedInstance.to_dict()``, what
``kikuchi decompose`` writes outside its config and ``meta`` blocks, on
random instances generated at seed 1 and decomposed at l=2: one q=3, whose
edges move to a piece of pair labels, and two q=5, whose edges move to a
piece of triple labels.

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

from kikuchi.decompose import decompose, instance_thresholds
from kikuchi.instances import (
    expected_val,
    generate_planted_linear_instance,
    generate_random_matching_instance,
    val_for_all_signs,
)
from kikuchi.refute import refute_full

REFUTE = {"epsilon": 0.1, "gamma": 8.0, "trials": 50, "seed": 7}

# workload instance, ROADMAP grid point or route branch: (planted?, q, n, k,
# delta, ell); "large" (n=24, k=8, l=2) takes about half a minute, too long
# for tier 1.  The q=5 and q=7 points reach the branches where a route
# prunes no graph: the leftover flagged ell_too_small beside a piece flagged
# degenerate_D_zero, both routes flagged pruning_failed, and an empty leftover.
INSTANCES = {
    "grid-small": (False, 3, 16, 6, 0.25, 1),
    "regular-l2": (False, 3, 20, 6, 0.25, 2),
    "many-signs": (False, 3, 16, 12, 0.25, 1),
    "verify-exhaustive/random": (False, 3, 20, 6, 0.25, 1),
    "verify-exhaustive/planted": (True, 3, 20, 6, 0.16, 1),
    "q5-ell-too-small": (False, 5, 16, 100, 0.2, 1),
    "q5-pruning-failed": (False, 5, 15, 24, 0.2, 2),
    "q7-empty-leftover": (False, 7, 14, 3, 0.1, 3),
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
    "q5-ell-too-small":
        "1d9b82b6165e9a937f1a53c7099650708df9ee619fefe63cdab9eb540a290352",
    "q5-pruning-failed":
        "674690ebb684298865b3573a8868395fe53f8cf2c529e8d1df4e8ed9e44ffffc",
    "q7-empty-leftover":
        "d535f9a8aa5b01a1ca8e244fdb074d63edd6f4daf30458bb18c8abfd80663203",
}


ORACLE_GOLDEN = {
    "soundness/verify-exhaustive/random":
        "0d83c3ccd361ef52107e788c87adf703521e1e333903cdf7a9ef07ab2caf5049",
    "soundness/verify-exhaustive/planted":
        "6e1db91287e9b83af941ac8bd563b3ff6ed51a109fb98cb4ff689b90949fcd3e",
    "val_for_all_signs/many-signs":
        "afdf449c5c4915fd8ba8f32b2ab26938307d9507c7cabdeb703ae5b71ecc532e",
    "val_for_all_signs/many-signs/piece-2":
        "741bfa07d495babbd230cab11318dd0e9b337545afa8b095b1b078daf00fef90",
    "expected_val/n16-k17-trials50-seed3":
        "2c7d096d4b1e9bc4b105158350637dfdd72467e7f6d10ae711f4a1207789698a",
}

# random instance at generation seed 1, decomposed at l=2: (q, n, k, delta),
# and the hyperedges the decomposition moves into pieces
DECOMPOSITIONS = {
    "q3-n20-k6": ((3, 20, 6, 0.25), 16),
    "q5-n15-k24": ((5, 15, 24, 0.2), 70),
    "q5-n20-k48": ((5, 20, 48, 0.2), 188),
}

DECOMPOSITION_GOLDEN = {
    "q3-n20-k6":
        "9bdcd924d0aaa5de9624549575ae71fa52e93dad8ca3acb1cef9cfa430652bef",
    "q5-n15-k24":
        "bdc8ee0f6bbe03d2db05110b9a4c30e594485fa4a2433b80cd681b1ad6d8313d",
    "q5-n20-k48":
        "dea8f1d8dbdf7fbd5215856960656cb25192bc42d91b53d7b8549be3e97239a2",
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
    planted, q, n, k, delta, _ = INSTANCES[name]
    if planted:
        return generate_planted_linear_instance(n, q, k, delta, 1)[0]
    return generate_random_matching_instance(n, q, k, delta, 1)


def refutation(name: str):
    return refute_full(instance(name), ell=INSTANCES[name][5], threads=1, **REFUTE)


def certificate(name: str) -> dict:
    return refutation(name).certificate


def oracle_value(name: str):
    """The JSON value an ``ORACLE_GOLDEN`` entry pins."""
    kind, _, rest = name.partition("/")
    if kind == "soundness":
        return refutation(rest).soundness_check()
    if kind == "val_for_all_signs":
        rest, _, piece = rest.partition("/piece-")
        inst = instance(rest)
        if piece:
            dec = decompose(inst, instance_thresholds(inst, INSTANCES[rest][5]))
            inst = dec.pieces[int(piece)]
        return val_for_all_signs(inst).tolist()
    inst = generate_random_matching_instance(16, 3, 17, 0.25, 1)
    return list(expected_val(inst, trials=50, seed=3))


def decomposition(name: str):
    (q, n, k, delta), _ = DECOMPOSITIONS[name]
    inst = generate_random_matching_instance(n, q, k, delta, 1)
    return decompose(inst, instance_thresholds(inst, 2))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_certificate_digest_is_pinned(name):
    assert digest(certificate(name)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDEN))
def test_oracle_digest_is_pinned(name):
    assert value_digest(oracle_value(name)) == ORACLE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
def test_decomposition_digest_is_pinned(name):
    dec = decomposition(name)
    moved = dec.original.total_edges - dec.leftover.total_edges
    assert moved == DECOMPOSITIONS[name][1]
    assert value_digest(dec.to_dict()) == DECOMPOSITION_GOLDEN[name]


if __name__ == "__main__":
    for name in INSTANCES:
        print(f'    "{name}":\n        "{digest(certificate(name))}",')
    print()
    for name in ORACLE_GOLDEN:
        print(f'    "{name}":\n        "{value_digest(oracle_value(name))}",')
    print()
    for name in DECOMPOSITIONS:
        print(f'    "{name}":\n        "{value_digest(decomposition(name).to_dict())}",')
