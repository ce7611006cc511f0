"""Acceptance suite.

Each test implements one exit criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them).
"""

import dataclasses
import math
import time

import numpy as np

from bellsim.chance import (
    CausalVerdictKind,
    causally_depends,
    chance_at,
    estimated_chance,
    set_angle_intervention,
    vertical_outcome,
)
from bellsim.harness import (
    CHSH_OPTIMAL_QUADRUPLE,
    RunConfig,
    chsh_schedule,
    empirical_statistics,
    run_trials,
)
from bellsim.hidden_variables import builtin_vector_model, deterministic_chsh_maximum
from bellsim.locality import (
    check_factorizability,
    check_outcome_independence,
    check_parameter_independence,
    chsh,
    default_angle_grid,
    no_signalling_deviation,
    quantum_model,
)
from bellsim.quantum import OutcomeLabel, Wing
from bellsim.spacetime import (
    Outcome,
    SpacetimePoint,
    causal_relation,
    is_spacelike,
    standard_scenario,
)

TWO_ROOT_TWO = 2.0 * math.sqrt(2.0)
E_A = vertical_outcome(Wing.A)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def test_criterion_1_analytic_chsh():
    model = quantum_model()
    chsh(model, *CHSH_OPTIMAL_QUADRUPLE)  # warm up caches and imports
    fresh = quantum_model()
    start = time.perf_counter()
    value = chsh(fresh, *CHSH_OPTIMAL_QUADRUPLE)
    elapsed = time.perf_counter() - start
    ok = abs(value - TWO_ROOT_TWO) <= 1e-9 and elapsed < 1e-3
    report(1, "analytic CHSH", ok, f"value={value!r}, {elapsed*1e6:.0f} us")


def test_criterion_2_empirical_chsh():
    schedule = chsh_schedule(*CHSH_OPTIMAL_QUADRUPLE)
    start = time.perf_counter()
    hits = 0
    first_value = None
    for seed in range(100):
        config = RunConfig(model="qm", schedule=schedule, trials=100_000, seed=seed)
        bundle = empirical_statistics(run_trials(config))
        if first_value is None:
            first_value = bundle.chsh
        if abs(bundle.chsh - 2.8284271) <= 4.0 * bundle.chsh_stderr:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 99 and elapsed < 5.0
    report(2, "empirical CHSH", ok, f"first={first_value:.5f}, {hits}/100 in 4 sigma, {elapsed:.2f} s")


def test_criterion_3_classical_bound():
    rng = np.random.default_rng(2026)
    deterministic_chsh_maximum(0.0, 45.0, 22.5, -22.5)  # warm up
    quadruples = rng.uniform(0.0, 180.0, size=(100, 4))
    start = time.perf_counter()
    values = [deterministic_chsh_maximum(*row)[0] for row in quadruples]
    elapsed = time.perf_counter() - start
    ok = all(v == 2.0 for v in values) and elapsed < 1e-2
    report(3, "classical bound", ok, f"max={max(values)}, {elapsed*1e3:.2f} ms")


def test_criterion_4_chance_table():
    tol = 1e-12
    ok = True
    details = []
    # conditional value at q follows cos^2 of the analyzer separation;
    # at zero separation that is 1, which the aligned clause below
    # asserts explicitly (see the decisions ledger on the tabulated 1/2)
    for delta in (0.0, 22.5, 45.0, 60.0, 90.0):
        s = standard_scenario(settings_in_overlap=True, angle_a=0.0, angle_b=delta)
        expected = math.cos(math.radians(delta)) ** 2
        got = chance_at(s.q, E_A, s).value
        ok &= abs(got - expected) <= tol
        details.append(f"q@{delta}:{got:.6f}")
        for point in (s.p, s.p_prime, s.r):
            ok &= abs(chance_at(point, E_A, s).value - 0.5) <= tol
    aligned = standard_scenario(settings_in_overlap=True, angle_a=15.0, angle_b=15.0)
    ok &= abs(chance_at(aligned.q, E_A, aligned).value - 1.0) <= tol
    report(4, "chance table", ok, ", ".join(details))


def test_criterion_5_condition_signature():
    grid = default_angle_grid(8)
    model = quantum_model()
    pi = check_parameter_independence(model, grid)
    oi = check_outcome_independence(model, grid)
    fact = check_factorizability(model, grid)
    ns = no_signalling_deviation(model, grid)
    ok = (
        pi.holds
        and not oi.holds
        and abs(oi.max_deviation - 0.5) <= 1e-9
        and oi.witness["a_deg"] == oi.witness["b_deg"]
        and not fact.holds
        and abs(fact.max_deviation - 0.25) <= 1e-9
        and fact.witness["a_deg"] == fact.witness["b_deg"]
        and ns <= 1e-12
    )
    report(
        5,
        "condition signature",
        ok,
        f"PI dev={pi.max_deviation:.2e}, OI dev={oi.max_deviation}, "
        f"fact dev={fact.max_deviation}, no-signal={ns:.2e}",
    )


def test_criterion_6_decision_invariance():
    tol = 1e-12
    s = standard_scenario(settings_in_overlap=True, angle_a=20.0, angle_b=20.0)
    contemplated = [20.0, 80.0, None]  # same axis, 60 degrees away, nothing
    contemplated += [i * 1.0 for i in range(180)]
    ok = True
    for beta in contemplated:
        iv = set_angle_intervention(s, Wing.B, beta)
        value = estimated_chance(s.p_prime, E_A, iv, s).value
        ok &= abs(value - 0.5) <= tol
    report(6, "decision invariance", ok, f"{len(contemplated)} contemplated settings")


def test_criterion_7_intervention_semantics():
    s = standard_scenario(settings_in_overlap=True, angle_a=0.0, angle_b=22.5)
    dependent = causally_depends(E_A, s.preparation_event(), s)
    senseless = causally_depends(E_A, s.outcome_event(Wing.B), s)
    ok = (
        dependent.kind is CausalVerdictKind.DEPENDENT
        and dependent.witness is not None
        and senseless.kind is CausalVerdictKind.SENSELESS_INTERVENTION
    )
    witness = tuple(round(c.value, 4) for c in dependent.witness) if dependent.witness else ()
    independent_everywhere = True
    for b_deg in [i * (180.0 / 16) for i in range(16)]:
        grid_scenario = standard_scenario(
            settings_in_overlap=True, angle_a=0.0, angle_b=b_deg
        )
        verdict = causally_depends(E_A, grid_scenario.setting_event(Wing.B), grid_scenario)
        independent_everywhere &= verdict.kind is CausalVerdictKind.INDEPENDENT
    ok = ok and independent_everywhere
    report(7, "intervention semantics", ok, f"witness={witness}")


def _remote_perturbations(scenario, point, count, seed):
    """Move, relabel or remove wing-B events, staying spacelike to `point`."""
    rng = np.random.default_rng(seed)
    outcome_b = scenario.outcome_event(Wing.B)
    variants = []
    while len(variants) < count:
        kind = rng.integers(0, 3)
        if kind == 0:
            variants.append(
                scenario.with_events(ev for ev in scenario.events if ev.id != outcome_b.id)
            )
            continue
        moved_point = SpacetimePoint(float(rng.uniform(5.7, 6.3)), float(rng.uniform(3.4, 4.6)))
        if not is_spacelike(point, moved_point):
            continue
        label = OutcomeLabel.V if kind == 1 else OutcomeLabel.H
        moved = dataclasses.replace(
            outcome_b, point=moved_point, kind=Outcome(Wing.B, label)
        )
        variants.append(
            scenario.with_events(
                moved if ev.id == outcome_b.id else ev for ev in scenario.events
            )
        )
    return variants


def test_criterion_8_cone_dependence_and_boosts():
    overlap = standard_scenario(settings_in_overlap=True, angle_a=0.0, angle_b=22.5)
    baseline = chance_at(overlap.p, E_A, overlap).value
    identical = all(
        chance_at(v.p, E_A, v).value == baseline
        for v in _remote_perturbations(overlap, overlap.p, 1000, seed=13)
    )

    points = [ev.point for ev in overlap.events]
    points += [overlap.p, overlap.p_prime, overlap.q, overlap.r]
    verdicts = {
        (i, j): causal_relation(points[i], points[j])
        for i in range(len(points))
        for j in range(len(points))
        if i != j
    }
    rng = np.random.default_rng(29)
    boosts_ok = True
    for _ in range(1000):
        zeta = float(rng.uniform(-2.0, 2.0))
        boosted = [p.boosted(zeta) for p in points]
        for (i, j), expected in verdicts.items():
            if causal_relation(boosted[i], boosted[j]) is not expected:
                boosts_ok = False
    ok = identical and boosts_ok
    report(8, "cone dependence", ok, f"bit-identical={identical}, boosts={boosts_ok}")


def test_criterion_9_lhv_sanity():
    model = builtin_vector_model()
    grid = default_angle_grid(8)
    pi = check_parameter_independence(model, grid)
    oi = check_outcome_independence(model, grid)
    fact = check_factorizability(model, grid)
    value = chsh(model, *CHSH_OPTIMAL_QUADRUPLE)
    ok = pi.holds and oi.holds and fact.holds and abs(value) <= 1e-6
    report(9, "LHV sanity", ok, f"chsh={value!r}")
