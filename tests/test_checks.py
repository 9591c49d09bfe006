from qgames import checks

SAMPLES, SEED = 50, 5


def _pairs(streams):
    return {(seed, int(i)) for seed, indices in streams for i in indices}


def test_paper_check_draw_plan(haar_batches):
    plan = {}
    for check in checks.ALL_CHECKS:
        start = len(haar_batches)
        check(SAMPLES, SEED)
        plan[check.__name__] = (haar_batches[start:], haar_batches.streams[start:])
    drawing = {name for name, (sizes, _) in plan.items() if sizes}
    assert drawing == {"check_haar_uniformity", "check_quantum_equilibrium", "check_determinism"}
    # Check 7: one Haar x Haar sampler test and its 20 fixed opponents, no
    # one-sided streams.
    sizes, streams = plan["check_haar_uniformity"]
    assert sizes == [SAMPLES, SAMPLES, 20]
    sampler, fixed = streams[:2], streams[2:]
    assert [seed for seed, _ in sampler] == [SEED + 1, SEED + 1]
    assert [seed for seed, _ in fixed] == [SEED ^ 0x5EED]
    # Check 8: verify_quantum_eq's two slots only; the security scan draws nothing.
    sizes, check8 = plan["check_quantum_equilibrium"]
    assert sizes == [SAMPLES, SAMPLES]
    _, check10 = plan["check_determinism"]
    assert not _pairs(sampler) & (_pairs(check8) | _pairs(check10))
    assert not _pairs(fixed) & (_pairs(check8) | _pairs(check10))


def test_one_sided_and_security_claims_are_exact():
    data = checks.check_haar_uniformity(SAMPLES, SEED).data
    assert data["worst_cell_error_one_sided"] < 1e-15
    assert data["one_sided_form_error"] < 1e-15
    data = checks.check_quantum_equilibrium(SAMPLES, SEED).data
    assert abs(data["poker_security"] - 15 / 16) < 1e-15
    assert data["poker_scan_spread"] < 1e-14
