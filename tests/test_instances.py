import json

import numpy as np
import pytest

from conftest import slow_brute_force
from kikuchi.instances import (
    BipartiteXorInstance,
    DimensionMismatch,
    InfeasibleSize,
    OracleLimitExceeded,
    XorInstance,
    brute_force_val,
    dump_instance,
    eval_phi,
    eval_psi_bipartite,
    expected_val,
    generate_planted_linear_instance,
    generate_random_bipartite_instance,
    generate_random_matching_instance,
    load_instance,
    val_for_all_signs,
    validate_matching,
)


def toy(hypergraphs, n=6, q=3):
    return XorInstance(n=n, k=len(hypergraphs), q=q, delta=1.0 / n,
                       hypergraphs=hypergraphs)


def test_validate_matching():
    assert validate_matching([[0, 1, 2], [3, 4, 5]]) == (True, None)
    ok, pair = validate_matching([[0, 1, 2], [2, 3, 4]])
    assert not ok and 2 in pair[0] and 2 in pair[1]
    assert validate_matching([]) == (True, None)


def test_instance_rejects_collisions_and_bad_sizes():
    with pytest.raises(ValueError):
        toy([[[0, 1, 2], [2, 3, 4]]])
    with pytest.raises(ValueError):
        toy([[[0, 1]]])  # not 3-uniform
    with pytest.raises(ValueError):
        XorInstance(n=6, k=1, q=3, delta=0.2, hypergraphs=[[[0, 1, 9]]])
    with pytest.raises(ValueError):
        toy([[[0, 0, 1]]])  # repeated vertex inside an edge


def test_eval_phi_bounded_by_edge_count(rng):
    inst = generate_random_matching_instance(10, 3, 4, 0.2, seed=1)
    for _ in range(50):
        b = (1 - 2 * rng.integers(0, 2, size=4)).tolist()
        x = (1 - 2 * rng.integers(0, 2, size=10)).tolist()
        assert abs(eval_phi(inst, b, x)) <= inst.total_edges


def test_eval_phi_examples():
    inst = toy([[[0, 1, 2]]])
    assert eval_phi(inst, [1], [1] * 6) == 1
    assert eval_phi(inst, [-1], [1] * 6) == -1
    inst2 = toy([[[0, 1, 2]], [[0, 3, 4]]])
    x = [-1, 1, 1, 1, 1, 1]
    assert eval_phi(inst2, [1, 1], x) == -2


def test_eval_phi_linear_in_signs(rng):
    inst = generate_random_matching_instance(10, 3, 4, 0.2, seed=0)
    for _ in range(20):
        b = (1 - 2 * rng.integers(0, 2, size=4)).tolist()
        x = (1 - 2 * rng.integers(0, 2, size=10)).tolist()
        i = int(rng.integers(0, 4))
        b2 = list(b)
        b2[i] = -b2[i]
        contrib = sum(
            int(np.prod([x[v] for v in e])) for e in inst.hypergraphs[i]
        )
        assert eval_phi(inst, b2, x) - eval_phi(inst, b, x) == -2 * b[i] * contrib


def test_eval_phi_dimension_errors():
    inst = toy([[[0, 1, 2]]])
    with pytest.raises(DimensionMismatch):
        eval_phi(inst, [1, 1], [1] * 6)
    with pytest.raises(DimensionMismatch):
        eval_phi(inst, [1], [1] * 5)


def bipartite_toy():
    return BipartiteXorInstance(
        n=4, k=2, q=3, s=2,
        registry=[(0, 1), (2, 3)],
        hypergraphs=[[((2,), 0)], [((0,), 1)]],
    )


def test_eval_psi_examples():
    inst = bipartite_toy()
    x = [1, 1, 1, 1]
    assert eval_psi_bipartite(inst, [1, 1], x, [1, 1]) == 2
    assert eval_psi_bipartite(inst, [1, 1], x, [-1, 1]) == 0
    assert eval_psi_bipartite(inst, [1, -1], x, [1, 1]) == 0
    with pytest.raises(DimensionMismatch):
        eval_psi_bipartite(inst, [1, 1], x, [1])


def test_bipartite_matching_validation():
    with pytest.raises(ValueError):
        BipartiteXorInstance(
            n=4, k=1, q=3, s=2, registry=[(0, 1)],
            hypergraphs=[[((2,), 0), ((3,), 0)]],  # repeated label
        )


def test_brute_force_matches_slow_scan(rng):
    for seed in range(4):
        inst = generate_random_matching_instance(8, 3, 2, 0.25, seed=seed)
        b = (1 - 2 * rng.integers(0, 2, size=2)).tolist()
        fast, x, _ = brute_force_val(inst, b)
        assert fast == slow_brute_force(inst, b)
        assert eval_phi(inst, b, x) == fast  # argmax witnesses the value


def test_brute_force_bipartite_joint(rng):
    inst = generate_random_bipartite_instance(6, 3, 2, 2, edges_per=2,
                                              p_size=3, seed=1)
    b = [1, -1]
    fast, x, y = brute_force_val(inst, b)
    assert fast == slow_brute_force(inst, b)
    assert eval_psi_bipartite(inst, b, x, y) == fast


def test_brute_force_limit():
    inst = generate_random_matching_instance(12, 3, 2, 0.25, seed=0)
    with pytest.raises(OracleLimitExceeded):
        brute_force_val(inst, [1, 1], limit=10)


def test_single_edge_instance_values():
    inst = toy([[[0, 1, 2]]])
    assert brute_force_val(inst, [1])[0] == 1
    mean, err = expected_val(inst)
    assert mean == 1.0 and err == 0.0


def test_expected_val_exhaustive_vs_sampled():
    inst = generate_random_matching_instance(10, 3, 3, 0.2, seed=7)
    exact, err0 = expected_val(inst)
    assert err0 == 0.0
    vals = val_for_all_signs(inst)
    assert exact == vals.mean()
    # force the sampling path and compare within 3 stderr
    import kikuchi.instances as mod

    old = mod.EXHAUSTIVE_B_LIMIT
    mod.EXHAUSTIVE_B_LIMIT = 0
    try:
        mean, err = expected_val(inst, trials=200, seed=1)
    finally:
        mod.EXHAUSTIVE_B_LIMIT = old
    assert err > 0
    assert abs(mean - exact) <= 3 * err + 1e-9


@pytest.mark.parametrize("trials", [1, 0, -3])
def test_sampled_expected_val_needs_two_trials(trials):
    inst = generate_random_matching_instance(12, 3, 18, 0.25, seed=1)
    with pytest.raises(ValueError, match="trials must be >= 2"):
        expected_val(inst, trials=trials)
    small = generate_random_matching_instance(12, 3, 4, 0.25, seed=1)
    assert expected_val(small, trials=trials)[1] == 0.0  # exhaustive, no draws


def test_load_instance_names_the_missing_key(tmp_path):
    path = tmp_path / "inst.json"
    d = generate_random_matching_instance(12, 3, 4, 0.25, seed=1).to_dict()
    del d["k"]
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match=f"{path}: instance file has no key 'k'"):
        load_instance(path)


def test_expected_val_sampled_matches_on_k10():
    inst = generate_random_matching_instance(12, 3, 10, 0.1, seed=2)
    exact, _ = expected_val(inst)
    import kikuchi.instances as mod

    old = mod.EXHAUSTIVE_B_LIMIT
    mod.EXHAUSTIVE_B_LIMIT = 0
    try:
        mean, err = expected_val(inst, trials=300, seed=4)
    finally:
        mod.EXHAUSTIVE_B_LIMIT = old
    assert abs(mean - exact) <= 3 * err + 1e-9


def test_random_generator_properties():
    inst = generate_random_matching_instance(12, 3, 4, 0.25, seed=5)
    assert inst.edge_counts == (3, 3, 3, 3)
    for h in inst.hypergraphs:
        assert validate_matching(h)[0]
    again = generate_random_matching_instance(12, 3, 4, 0.25, seed=5)
    assert again.hypergraphs == inst.hypergraphs
    other = generate_random_matching_instance(12, 3, 4, 0.25, seed=6)
    assert other.hypergraphs != inst.hypergraphs
    with pytest.raises(InfeasibleSize):
        generate_random_matching_instance(6, 3, 1, 1.0, seed=0)


def test_planted_instance_is_fully_satisfiable():
    inst, code = generate_planted_linear_instance(12, 3, 4, 0.16, seed=2)
    total = inst.total_edges
    for bidx in range(16):
        b = [1 - 2 * ((bidx >> i) & 1) for i in range(4)]
        assert eval_phi(inst, b, code.encode(b)) == total
    vals = val_for_all_signs(inst)
    assert (vals == total).all()
    again, code2 = generate_planted_linear_instance(12, 3, 4, 0.16, seed=2)
    assert again.hypergraphs == inst.hypergraphs
    assert code2.columns == code.columns


def test_instance_json_roundtrip(tmp_path):
    inst = generate_random_matching_instance(9, 3, 2, 0.2, seed=3)
    p = tmp_path / "inst.json"
    dump_instance(inst, p)
    with open(p) as fh:
        raw = json.load(fh)
    assert min(min(min(e) for e in h) for h in raw["hypergraphs"]) >= 1  # 1-based
    back = load_instance(p)
    assert back == inst


def test_bipartite_json_roundtrip(tmp_path):
    inst = generate_random_bipartite_instance(7, 3, 2, 2, edges_per=2,
                                              p_size=4, seed=9)
    p = tmp_path / "bip.json"
    dump_instance(inst, p)
    back = load_instance(p)
    assert back == inst
