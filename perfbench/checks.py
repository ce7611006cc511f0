"""Independent checks of bellsim outputs.

Nothing here imports bellsim. Every expected value is derived from the
documented contracts (README, module docstrings) and from closed forms,
so a check fails when the program is wrong rather than when it merely
agrees with itself. Each check raises :class:`CheckError` on the first
disagreement it finds.

Conventions shared with bellsim, restated from its documentation:

* analyzer angles are degrees from the vertical, modulo 180; outcome V
  is "parallel to the analyzer axis" and encodes to +1, H to -1;
* single-photon kets have components (H, V); the pair basis is
  {HH, HV, VH, VV} with wing A as the left tensor factor;
* joint cells are ordered VV, VH, HV, HH;
* trial i of pair k uses the Philox uniforms 2i and 2i+1 of the stream
  keyed by (seed, k); the second one picks the joint outcome cell.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

#: Uniforms this close to a cumulative cell boundary may legitimately
#: fall on either side: the program's Born-rule table and the closed form
#: used here differ in the last bits.
BOUNDARY_SLACK = 1e-12

#: Tolerance for values that bellsim computes with the trace rule and the
#: checks compute in closed form.
VALUE_TOL = 1e-12

#: Deviations this close to a checker's tolerance may get either verdict.
VERDICT_SLACK = 1e-14

#: Gate, in standard deviations, for estimates checked statistically. A
#: run makes up to a few thousand such comparisons; at 6 sigma the chance
#: that a correct program trips one of them in a run stays below 1e-5.
SIGMAS = 6.0

CELLS = (("V", "V"), ("V", "H"), ("H", "V"), ("H", "H"))

CSV_COLUMNS = "pair_index,a_deg,b_deg,n,f_VV,f_VH,f_HV,f_HH,E,E_stderr"

TWO_ROOT_TWO = 2.0 * math.sqrt(2.0)


class CheckError(Exception):
    """An output of bellsim disagrees with its independent derivation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(got: float, expected: float, tol: float = VALUE_TOL) -> bool:
    return got is not None and abs(got - expected) <= tol


# -- closed forms for the maximally entangled pair -----------------------------


def phi_plus_cells(a_deg: float, b_deg: float) -> tuple[float, float, float, float]:
    """P(VV), P(VH), P(HV), P(HH) for (|HH> + |VV>)/sqrt 2."""
    d = math.radians(a_deg - b_deg)
    same = math.cos(d) ** 2 / 2.0
    differ = math.sin(d) ** 2 / 2.0
    return same, differ, differ, same


def phi_plus_correlation(a_deg: float, b_deg: float) -> float:
    return math.cos(2.0 * math.radians(a_deg - b_deg))


def phi_plus_conditional(a_deg: float, b_deg: float, label: str, given: str) -> float:
    """P(one wing = label | other wing = given)."""
    d = math.radians(a_deg - b_deg)
    return math.cos(d) ** 2 if label == given else math.sin(d) ** 2


def triangle_correlation(a_deg: float, b_deg: float) -> float:
    """Correlation of the doubled-axis hidden-variable model: +1 aligned,
    0 at 22.5 degrees, -1 at 45 degrees, period 90."""
    t = abs(a_deg - b_deg) % 90.0
    return 1.0 - 4.0 * min(t, 90.0 - t) / 90.0


# -- trace-rule tables for an arbitrary two-photon state -----------------------


def _wing_kets(angles_deg) -> np.ndarray:
    """Kets [angle, outcome, component] for outcomes (V, H)."""
    rad = np.radians(np.asarray(angles_deg, dtype=float))
    s, c = np.sin(rad), np.cos(rad)
    along = np.stack([s, c], axis=-1)
    across = np.stack([c, -s], axis=-1)
    return np.stack([along, across], axis=1).astype(complex)


def joint_table(rho: np.ndarray, angles_deg) -> np.ndarray:
    """P[a, b, outcome_a, outcome_b] = <a_oa b_ob| rho |a_oa b_ob>."""
    k = _wing_kets(angles_deg)
    pair = np.einsum("xmi,ynj->xymnij", k, k).reshape(len(k), len(k), 2, 2, 4)
    return np.einsum("...i,ij,...j->...", pair.conj(), rho, pair).real


def condition_deviations(table: np.ndarray, skip: float = 1e-12) -> dict[str, float]:
    """Worst-case deviations of a single-lambda table from parameter
    independence, outcome independence, factorizability and
    no-signalling."""
    marg_a = table.sum(axis=3)  # [a, b, oa]
    marg_b = table.sum(axis=2)  # [a, b, ob]
    pi = max(np.ptp(marg_a, axis=1).max(), np.ptp(marg_b, axis=0).max())
    worst = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        given_b = table / marg_b[:, :, None, :]
        dev_a = np.abs(given_b - marg_a[:, :, :, None])
        worst = max(worst, dev_a[np.broadcast_to(marg_b[:, :, None, :] > skip, dev_a.shape)].max())
        given_a = table / marg_a[:, :, :, None]
        dev_b = np.abs(given_a - marg_b[:, :, None, :])
        worst = max(worst, dev_b[np.broadcast_to(marg_a[:, :, :, None] > skip, dev_b.shape)].max())
    product = marg_a[:, :, :, None] * marg_b[:, :, None, :]
    return {
        "parameter_independence": float(pi),
        "outcome_independence": float(worst),
        "factorizability": float(np.abs(table - product).max()),
        "no_signalling": float(pi),
    }


def table_chsh(rho: np.ndarray, quad) -> float:
    a, a_prime, b, b_prime = quad
    t = joint_table(rho, [a, a_prime, b, b_prime])
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
    e = (t * signs).sum(axis=(2, 3))
    return float(e[0, 2] + e[0, 3] + e[1, 2] - e[1, 3])


# -- simulate with a trial log ------------------------------------------------------


def philox_cell_uniforms(seed: int, pair: int, n: int) -> np.ndarray:
    generator = np.random.Generator(
        np.random.Philox(key=np.array([seed, pair], dtype=np.uint64))
    )
    return generator.random(2 * n)[1::2]


def read_csv_report(text: str) -> tuple[list[dict], dict | None]:
    lines = text.splitlines()
    require(bool(lines) and lines[0] == CSV_COLUMNS, f"bad CSV header {lines[:1]!r}")
    names = CSV_COLUMNS.split(",")
    rows, summary = [], None
    for line in lines[1:]:
        fields = dict(zip(names, line.split(",")))
        require(len(fields) == len(names), f"bad CSV row {line!r}")
        if fields["pair_index"] == "CHSH":
            summary = {"chsh": float(fields["E"]), "stderr": float(fields["E_stderr"])}
        else:
            rows.append(fields)
    return rows, summary


def same_axis(x: float, y: float) -> bool:
    d = abs(x - y) % 180.0
    return min(d, 180.0 - d) <= VALUE_TOL


def check_pair_angles(got: list[dict], pairs, n: int) -> None:
    require(len(got) == len(pairs), f"report has {len(got)} pairs, expected {len(pairs)}")
    for k, ((a_deg, b_deg), p) in enumerate(zip(pairs, got)):
        require(p["pair_index"] == k and same_axis(p["a_deg"], a_deg) and same_axis(p["b_deg"], b_deg)
                and p["n"] == n, f"report pair {k} does not describe ({a_deg}, {b_deg}) x {n}")


def check_report_pairs(n: int, counts: list, frequencies: list, correlations: list,
                       stderrs: list) -> None:
    """Frequencies, E and its standard error follow from the counts."""
    for k, (c, f, e, s) in enumerate(zip(counts, frequencies, correlations, stderrs)):
        require(sum(c) == n, f"pair {k}: counts {c} do not add up to {n}")
        require(all(fi == ci / n for fi, ci in zip(f, c)), f"pair {k}: frequencies {f} != counts/n")
        expected_e = (c[0] + c[3] - c[1] - c[2]) / n
        require(close(e, expected_e), f"pair {k}: E {e} != {expected_e}")
        require(close(s, math.sqrt(max(1.0 - expected_e**2, 0.0) / n)), f"pair {k}: bad E_stderr {s}")


def check_chsh_summary(summary: dict | None, correlations: list, stderrs: list) -> None:
    require(summary is not None, "four-pair report lacks its CHSH row")
    e = correlations
    require(close(summary["chsh"], e[0] + e[1] + e[2] - e[3]), f"CHSH {summary['chsh']} != E1+E2+E3-E4")
    require(close(summary["stderr"], math.sqrt(sum(s * s for s in stderrs))), "bad CHSH stderr")


def check_trial_log(log_text: str, csv_text: str, *, seed: int,
                    pairs: list[tuple[float, float]], n: int, coordinates: dict) -> None:
    """The JSON-lines trial log and the CSV report of one qm run.

    Every trial is re-derived from the reproducibility contract and the
    closed-form Phi+ cell probabilities; a trial whose uniform lies
    within BOUNDARY_SLACK of a cell boundary is excused.
    """
    lines = log_text.splitlines()
    require(len(lines) == n * len(pairs), f"log has {len(lines)} lines, expected {n * len(pairs)}")
    records = json.loads("[" + ",".join(lines) + "]")
    require(len(records) == len(lines), "log lines are not one JSON object each")
    require(all(type(r) is dict and len(r) == 7 and r.get("coordinates") == coordinates for r in records),
            "log records must have exactly the seven documented keys and the outcome coordinates")
    rows, summary = read_csv_report(csv_text)
    require(len(rows) == len(pairs), f"report has {len(rows)} pair rows, expected {len(pairs)}")
    index = {cell: c for c, cell in enumerate(CELLS)}
    counts, freqs, corrs, errs = [], [], [], []
    for k, (a_deg, b_deg) in enumerate(pairs):
        block = records[k * n:(k + 1) * n]
        for key, want in (("pair", k), ("a_deg", a_deg), ("b_deg", b_deg)):
            bad = [i for i, r in enumerate(block) if r[key] != want]
            require(not bad, f"pair {k}: trial {bad[:1]} has {key}={block[bad[0]][key] if bad else None}")
        require([r["trial"] for r in block] == list(range(n)), f"pair {k}: trials out of order")
        got = np.array([index.get((r["A"], r["B"]), -1) for r in block])
        u = philox_cell_uniforms(seed, k, n)
        bounds = np.cumsum(phi_plus_cells(a_deg, b_deg))[:3]
        expected = np.searchsorted(bounds, u, side="right")
        excused = np.abs(u[:, None] - bounds).min(axis=1) <= BOUNDARY_SLACK
        wrong = np.flatnonzero((got != expected) & ~excused)
        require(wrong.size == 0,
                f"pair {k}: {wrong.size} trials disagree with the Philox re-derivation, "
                f"first at trial {wrong[:1].tolist()}")
        row = rows[k]
        require(int(row["pair_index"]) == k and float(row["a_deg"]) == a_deg
                and float(row["b_deg"]) == b_deg and int(row["n"]) == n,
                f"report row {k} does not describe pair ({a_deg}, {b_deg}) x {n}")
        counts.append([int(np.count_nonzero(got == c)) for c in range(4)])
        freqs.append([float(row[f"f_{x}{y}"]) for x, y in CELLS])
        corrs.append(float(row["E"]))
        errs.append(float(row["E_stderr"]))
    check_report_pairs(n, counts, freqs, corrs, errs)
    check_chsh_summary(summary, corrs, errs)


# -- statistical checks on report-only runs -----------------------------------------


def check_qm_report(report: dict, *, pairs: list[tuple[float, float]], n: int) -> None:
    """A report-only qm run at CHSH-optimal separations: each E within
    SIGMAS of cos 2(a - b), CHSH within SIGMAS of 2 sqrt 2."""
    got = report["pairs"]
    check_pair_angles(got, pairs, n)
    check_report_pairs(n, [p["counts"] for p in got], [p["frequencies"] for p in got],
                       [p["E"] for p in got], [p["E_stderr"] for p in got])
    variances = []
    for k, ((a_deg, b_deg), p) in enumerate(zip(pairs, got)):
        expected = phi_plus_correlation(a_deg, b_deg)
        variances.append((1.0 - expected**2) / n)
        require(abs(p["E"] - expected) <= SIGMAS * math.sqrt(variances[-1]),
                f"pair {k}: E={p['E']} is beyond {SIGMAS} sigma of {expected}")
    sigma = math.sqrt(sum(variances))
    require(abs(report["chsh"] - TWO_ROOT_TWO) <= SIGMAS * sigma,
            f"CHSH {report['chsh']} is beyond {SIGMAS} sigma of 2 sqrt 2")
    check_chsh_summary({"chsh": report["chsh"], "stderr": report["chsh_stderr"]},
                       [p["E"] for p in got], [p["E_stderr"] for p in got])


def check_lhv_report(report: dict, analytic_chsh: float, *, quad, n: int, nodes: int) -> None:
    """A report-only run of the hidden-axis model.

    All three per-lambda conditions and no-signalling hold; bellsim's
    analytic CHSH matches the triangle wave within the midpoint
    quadrature error (each of the four correlations has at most eight
    response jumps, each costing at most 2/nodes); the empirical CHSH
    lies within SIGMAS of the analytic value.
    """
    verdicts = {r["condition"]: r for r in report["condition_reports"]}
    for name in ("parameter_independence", "outcome_independence", "factorizability", "no_signalling"):
        r = verdicts.get(name)
        require(r is not None and r["holds"] and r["max_deviation"] <= 1e-12,
                f"hidden-variable model: {name} should hold, report says {r!r}")
    a, a_prime, b, b_prime = quad
    pairs = ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))
    e = [triangle_correlation(x, y) for x, y in pairs]
    closed = e[0] + e[1] + e[2] - e[3]
    require(abs(analytic_chsh - closed) <= 4 * 16.0 / nodes,
            f"analytic CHSH {analytic_chsh} is not the triangle wave's {closed}")
    sigma = math.sqrt(sum(max(1.0 - x * x, 0.0) for x in e) / n)
    require(abs(report["chsh"] - analytic_chsh) <= SIGMAS * sigma + 1e-12,
            f"empirical CHSH {report['chsh']} is beyond {SIGMAS} sigma of {analytic_chsh}")
    got = report["pairs"]
    check_pair_angles(got, pairs, n)
    check_report_pairs(n, [p["counts"] for p in got], [p["frequencies"] for p in got],
                       [p["E"] for p in got], [p["E_stderr"] for p in got])


def check_quantum_conditions(outputs: dict, rho: np.ndarray, grid, quad) -> None:
    """Checker reports and CHSH of a quantum model of state rho."""
    expected = condition_deviations(joint_table(rho, grid))
    for name in ("parameter_independence", "outcome_independence", "factorizability"):
        r = outputs[name]
        require(close(r["max_deviation"], expected[name]),
                f"{name}: deviation {r['max_deviation']} != trace-rule {expected[name]}")
        require(r["holds"] == (r["max_deviation"] <= r["tolerance"]) and (r["witness"] is None) == r["holds"],
                f"{name}: verdict {r['holds']} disagrees with its deviation")
        require(abs(expected[name] - r["tolerance"]) <= VERDICT_SLACK
                or r["holds"] == (expected[name] <= r["tolerance"]),
                f"{name}: verdict {r['holds']} is wrong for deviation {expected[name]}")
    require(outputs["no_signalling"] <= 1e-12 and close(outputs["no_signalling"], expected["no_signalling"]),
            f"no-signalling deviation {outputs['no_signalling']}")
    require(abs(outputs["chsh"]) <= TWO_ROOT_TWO + VALUE_TOL, f"|CHSH| {outputs['chsh']} > 2 sqrt 2")
    require(close(outputs["chsh"], table_chsh(rho, quad)), "CHSH differs from the trace-rule value")


# -- chance queries on the canonical layouts ------------------------------------------

#: Event coordinates of the two canonical layouts, from the spacetime
#: module's documented contract.
LAYOUTS = {
    "overlap": {
        "o": (0.0, 0.0), "setting-a": (1.0, -0.5), "setting-b": (1.0, 0.5),
        "outcome-a": (6.0, -4.0), "outcome-b": (6.0, 4.0),
        "p": (5.75, -4.0), "p'": (5.75, 4.0), "q": (7.0, 4.0), "r": (3.0, 0.0),
    },
    "late": {
        "o": (0.0, 0.0), "setting-a": (5.5, -4.0), "setting-b": (5.5, 4.0),
        "outcome-a": (6.0, -4.0), "outcome-b": (6.0, 4.0),
        "p": (5.75, -4.0), "p'": (5.75, 4.0), "q": (7.0, 4.0), "r": (9.75, 0.0),
    },
}

PROBES = ("p", "p'", "q", "r")
TARGETS = ("eA", "eB", "joint")


def sees(point, event) -> bool:
    """Exact closed-cone test: ``event`` lies in the causal past of ``point``."""
    dt = Fraction(point[0]) - Fraction(event[0])
    dx = Fraction(point[1]) - Fraction(event[1])
    return dt >= abs(dx)


def expected_chance(layout: dict, probe: str, target: str, angles: dict, outcomes: dict):
    """Chance of a V target at a probe for Phi+, or None where undefined.

    ``angles`` and ``outcomes`` map a wing ('a', 'b') to its angle and
    label; a wing missing from ``outcomes`` registers nothing.
    """
    here = layout[probe]
    if not sees(here, layout["o"]):
        return None
    wanted = {"eA": ("a",), "eB": ("b",), "joint": ("a", "b")}[target]
    visible = {w: outcomes[w] for w in outcomes if sees(here, layout[f"outcome-{w}"])}
    for w in wanted:
        if w in visible and visible[w] != "V":
            return 0.0
    open_wings = [w for w in wanted if w not in visible]
    if not open_wings:
        return 1.0
    given = {w: o for w, o in visible.items() if w not in open_wings}
    needed = open_wings if len(open_wings) == 1 and not given else ["a", "b"]
    if not all(sees(here, layout[f"setting-{w}"]) and angles.get(w) is not None for w in needed):
        return None
    if len(open_wings) == 1 and not given:
        return 0.5
    if len(open_wings) == 2:
        return phi_plus_cells(angles["a"], angles["b"])[0]
    (_, label), = given.items()
    return phi_plus_conditional(angles["a"], angles["b"], "V", label)


def expected_estimate(layout: dict, probe: str, angles: dict, outcomes: dict, beta):
    """Estimated chance of eA at ``probe`` when wing B's setting is
    contemplated at ``beta`` (None: B measures nothing). For Phi+ the
    mixture over B's unseen outcome is the marginal 1/2."""
    angles = {**angles, "b": beta}
    outcomes = {w: o for w, o in outcomes.items() if w != "b" or beta is not None}
    return expected_chance(layout, probe, "eA", angles, outcomes)


PREPARATION_AXES = (0.0, 45.0, 90.0)


def check_chance_queries(got: dict, layout_name: str, angles: dict, outcomes: dict, betas) -> None:
    """Outputs of one query battery on a canonical layout (see workloads)."""
    layout = LAYOUTS[layout_name]
    for probe in PROBES:
        for target in TARGETS:
            value = got["chances"][probe, target]
            want = expected_chance(layout, probe, target, angles, outcomes)
            require((value is None) == (want is None) and (want is None or close(value, want)),
                    f"{layout_name}: chance of {target} at {probe} is {value}, expected {want}")
    for beta, value in zip(betas, got["estimates"]):
        want = expected_estimate(layout, "p'", angles, outcomes, beta)
        require((value is None) == (want is None) and (want is None or close(value, want)),
                f"{layout_name}: estimate at p' under beta={beta} is {value}, expected {want}")
    kind, witness = got["depends"]["preparation"]
    require(kind == "dependent" and witness is not None and close(witness[0], 0.5)
            and abs(witness[1] - 0.5) > 1e-9
            and any(close(witness[1], math.cos(math.radians(angles["a"] - t)) ** 2)
                    for t in PREPARATION_AXES),
            f"{layout_name}: eA on the preparation gave {kind} {witness}")
    # the Phi+ marginal is 1/2 at every axis, so neither setting moves eA at r
    for cause, want in (("setting-a", "independent"), ("setting-b", "independent"),
                        ("outcome-b", "senseless_intervention")):
        kind, witness = got["depends"][cause]
        require(kind == want and witness is None, f"{layout_name}: eA on {cause} gave {kind}, expected {want}")
    readings = got["readings"]
    conditional = phi_plus_conditional(angles["a"], angles["b"], "V", outcomes["b"])
    require(close(readings["unconditional"], 0.5) and close(readings["conditional_on_remote"], conditional),
            f"{layout_name}: readings {readings} (expected 0.5 and {conditional})")
    gap = abs(conditional - 0.5)
    # bellsim compares the gap with 1e-12; a gap that close to it may go either way
    require(abs(gap - 1e-12) <= 1e-9 or readings["conditional_equality_holds"] == (gap <= 1e-12),
            f"{layout_name}: conditional-equality verdict {readings['conditional_equality_holds']} "
            f"for a gap of {gap}")
    samples = readings["fixed_point_samples"]
    require(readings["fixed_point_holds"] and [s[0] for s in samples] == ["p"]
            and samples[0][1] == samples[0][2] and close(samples[0][1], 0.5),
            f"{layout_name}: fixed-point reading {readings['fixed_point_holds']} {samples}")


def check_boosted_copy(original: dict, boosted: dict, layout_name: str) -> None:
    require(boosted == original, f"{layout_name}: the boosted copy answered differently")
