"""The Born paths, bit for bit, against reference forms kept here.

``born_marginal`` is Python-float arithmetic on the reduced state's real
entries, and one joint or marginal is checked on its four or two floats.
Their references are the former numpy forms: the ``"ij,mji->m"``
marginal einsum, ``_validated``/``_clamp_probabilities`` on arrays and
the array ratio-slack-clamp step of ``_conditional``.

A joint cell is a sum from +0.0 of 16 terms, one per entry of rho in
row-major order: one cell on Python floats (``_born_cell``), a grid by
broadcasting (``_born_grid``). Each is pinned against two references:
the ``"ikjl,xmji,ynlk->xymn"`` einsum the joint used to be, and a plain
Python loop in the documented order. If a pin fails, its message names
the reference that disagrees: the einsum alone means numpy sums it in
another order; the loop means bellsim's own order moved. The reduced
states (``_partial_trace``) are pinned against their einsums the same
way. Equality is exact, sign of zero included.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim import quantum
from bellsim.locality import chsh, quantum_model
from bellsim.quantum import (
    ATOL,
    AnalyzerAngle,
    JointDistribution,
    OutcomeLabel,
    PhotonPairState,
    Wing,
    born_conditional,
    born_joint,
    born_marginal,
    product_polarized,
    reduced_state,
)

from strategies import density_matrices

V, H = OutcomeLabel.V, OutcomeLabel.H
NAN = float("nan")


def complex_projectors(angles):
    """``_projectors`` as the complex stack the einsums used to take."""
    return quantum._projectors(angles).astype(complex)


def einsum_marginal(state, wing, angle):
    """The former ``born_marginal``: one einsum, then the array clamp."""
    local = reduced_state(state, wing).matrix
    p = np.einsum("ij,mji->m", local, complex_projectors([angle])[0]).real
    quantum._clamp_probabilities(p, "marginal")
    return p.tolist()


def array_clamped(values, what):
    """``_clamp_probabilities`` on an array of ``values``."""
    clamped = np.array(values, dtype=float)
    quantum._clamp_probabilities(clamped, what)
    return clamped.tolist()


def array_joint(cells):
    """The former joint check: ``_validated`` on the 2x2 array."""
    vv, vh, hv, hh = cells
    return quantum._validated([[vv, vh], [hv, hh]], (2, 2)).reshape(4).tolist()


def array_conditional(joint, denom, given):
    """The former ratio-slack-clamp step of ``_conditional``, on a 2x2 array."""
    cond_wing, cond_label = given
    if denom <= quantum.ZERO_PROBABILITY:
        raise quantum.UndefinedConditionalError(
            f"conditioning outcome {cond_label.value} on wing {cond_wing.value} "
            f"has probability {denom!r}"
        )
    joint = np.array(joint, dtype=float).reshape(2, 2)
    index = 0 if cond_label is V else 1
    ratios = (joint[index] if cond_wing is Wing.A else joint[:, index]) / denom
    slack = 2.0 * quantum._BORN_ROUNDING / denom
    if slack > ATOL and -slack <= ratios.min() and ratios.max() <= 1.0 + slack:
        ratios = ratios.clip(0.0, 1.0)
    quantum._clamp_probabilities(ratios, "conditional")
    return ratios.tolist()


def assert_bits_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w and math.copysign(1.0, g) == math.copysign(1.0, w), (got, want)


def outcome(fn, *args):
    """A result as exact bits (``float.hex`` keeps the sign of zero), or
    the error's type and text."""
    try:
        return [float(v).hex() for v in fn(*args)]
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def nearly_hermitian_states(draw):
    """A density matrix whose upper triangle is moved by less than ATOL,
    which the state check accepts: a reduced state's rho_01 and rho_10
    then differ, so a swap of the two in the sum shows."""
    m = draw(density_matrices()).copy()
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        m[i, j] += draw(st.floats(-ATOL / 4, ATOL / 4))
    return PhotonPairState(m)


grid_angles = st.sampled_from([22.5 * k for k in range(-8, 9)])
any_angle = st.floats(-200.0, 200.0, exclude_min=True, exclude_max=True)
angles = st.one_of(grid_angles, any_angle)
states = st.one_of(
    density_matrices().map(PhotonPairState),
    nearly_hermitian_states(),
    st.builds(product_polarized, angles, angles),
)


#: Exact zeros of both signs in the joint's terms: Phi+ and diagonal or
#: product states at 0, 90 and -90 degrees. At 0 degrees the sine is 0, so
#: s * c is 0.0 and the H projector holds -0.0; at +-90 the cosine is 6.1e-17.
DIAGONAL = PhotonPairState(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
ZERO_EXAMPLES = [
    (state, a, b)
    for state in (quantum.PHI_PLUS, DIAGONAL, product_polarized(0.0, 90.0), product_polarized(-90.0, 0.0))
    for a, b in ((0.0, 90.0), (90.0, -90.0), (-90.0, 0.0))
]


def with_examples(cases):
    """Add each (state, a, b) of ``cases`` as a hypothesis ``@example``."""
    def decorate(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return decorate


def bits(values):
    """An array's float64 bit patterns in [a, b, outcome_a, outcome_b] order."""
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def einsum_pairs(rho, grid_a, grid_b):
    """The joint einsum that the quantum kernel used to be, at every grid size."""
    pa, pb = complex_projectors(grid_a), complex_projectors(grid_b)
    return np.einsum("ikjl,xmji,ynlk->xymn", rho.reshape(2, 2, 2, 2), pa, pb).real


def loop_projector(degrees):
    """P[outcome][row][col], V=0 and H=1, from the axis's sine and cosine."""
    rad = AnalyzerAngle(degrees).radians
    s, c = math.sin(rad), math.cos(rad)
    return (((s * s, s * c), (c * s, c * c)), ((c * c, -c * s), (-s * c, s * s)))


#: rho's entries in row-major order: (I, J, i, j, k, l), I = 2i + k, J = 2j + l.
ROW_MAJOR = [(I, J, I // 2, J // 2, I % 2, J % 2) for I in range(4) for J in range(4)]


def loop_pairs(rho, grid_a, grid_b):
    """The documented order as a plain loop: each cell is +0.0 plus, for
    rho's entries in row-major order, (Re rho_IJ * P_A[m, j, i]) * P_B[n, l, k]."""
    re = rho.real.tolist()
    pa, pb = [loop_projector(x) for x in grid_a], [loop_projector(y) for y in grid_b]
    out = np.empty((len(pa), len(pb), 2, 2))
    for (x, px), (y, py), m, n in itertools.product(enumerate(pa), enumerate(pb), (0, 1), (0, 1)):
        cell = 0.0
        for I, J, i, j, k, l in ROW_MAJOR:
            cell = cell + re[I][J] * px[m][j][i] * py[n][l][k]
        out[x, y, m, n] = cell
    return out


def assert_both_references(got, rho, grid_a, grid_b):
    """``got`` [a, b, outcome_a, outcome_b] is the einsum's and the loop's
    result, bit for bit; a failure names the reference that disagrees."""
    got = bits(got)
    for name, reference in (("einsum", einsum_pairs), ("loop", loop_pairs)):
        want = bits(reference(rho, grid_a, grid_b))
        mismatched = np.argwhere(got != want)
        assert mismatched.size == 0, (name, mismatched[:4].tolist(), grid_a, grid_b)


class TestScalarBornIsTheEinsum:
    @given(states, angles, angles)
    @example(product_polarized(0.0, 0.0), 0.0, 90.0)
    @example(product_polarized(22.5, 90.0), 112.5, 0.0)
    @example(quantum.PHI_PLUS, 45.0, -22.5)
    @example(DIAGONAL, 0.0, 90.0)
    @settings(max_examples=500, deadline=None)
    def test_marginal_bit_for_bit(self, state, angle_a, angle_b):
        for wing, angle in ((Wing.A, angle_a), (Wing.B, angle_b)):
            assert_bits_equal(born_marginal(state, wing, angle), einsum_marginal(state, wing, angle))

    @given(states, angles, angles)
    @example(product_polarized(0.0, 0.0), 0.0, 0.0)
    @example(product_polarized(90.0, 0.0), 89.99999, 0.0)
    @with_examples(ZERO_EXAMPLES)
    @settings(max_examples=300, deadline=None)
    def test_joint_and_conditional_bit_for_bit(self, state, a, b):
        j = born_joint(state, a, b)
        raw = quantum._born_cell(state, a, b)
        assert_both_references(np.reshape(raw, (1, 1, 2, 2)), state.matrix, [a], [b])
        cells = array_joint(raw)
        assert_bits_equal((j.vv, j.vh, j.hv, j.hh), cells)
        for wing in Wing:
            angle = a if wing is Wing.A else b
            for label, denom in zip((V, H), einsum_marginal(state, wing, angle)):
                given_ = (wing, label)
                want = outcome(array_conditional, cells, denom, given_)
                assert outcome(born_conditional, state, a, b, given_) == want

    @given(states, angles, angles)
    @with_examples(ZERO_EXAMPLES)
    @settings(max_examples=300, deadline=None)
    def test_one_cell_kernel_bit_for_bit(self, state, a, b):
        """A one-cell kernel call, ``joint`` and ``correlation`` of the
        quantum model are the references' cell, validated as an array."""
        model = quantum_model(state)
        degrees = np.array([AnalyzerAngle(a).degrees]), np.array([AnalyzerAngle(b).degrees])
        assert_both_references(model.kernel(*degrees)[:, :, 0], state.matrix, [a], [b])
        vv, vh, hv, hh = cells = array_joint(loop_pairs(state.matrix, [a], [b]).reshape(4))
        j = model.joint(a, b, 0)
        assert_bits_equal((j.vv, j.vh, j.hv, j.hh), cells)
        assert_bits_equal([model.correlation(a, b)], [(vv + hh) - (vh + hv)])


#: The 22.5-degree grid from -180 to 180, 17 angles: 289 angle pairs.
GRID_22_5 = [22.5 * k for k in range(-8, 9)]

grid_states = st.one_of(states, st.just(quantum.PHI_PLUS))
#: 1 to 40 angles on each side: grids of 1 x 1 up to 40 x 40.
grids = st.lists(angles, min_size=1, max_size=40)


class TestGridBornIsTheEinsum:
    @given(grid_states, grids, grids)
    @example(quantum.PHI_PLUS, GRID_22_5, GRID_22_5)
    @example(product_polarized(22.5, 90.0), GRID_22_5, [0.0, 45.0])
    @example(DIAGONAL, GRID_22_5, [90.0])
    @example(quantum.PHI_PLUS, [0.0, 90.0, -90.0], [-90.0, 0.0, 90.0])
    @example(product_polarized(0.0, 90.0), [0.0, 90.0, -90.0], [0.0])
    @settings(max_examples=300, deadline=None)
    def test_broadcast_sum_bit_for_bit(self, state, grid_a, grid_b):
        pa, pb = quantum._projectors(grid_a), quantum._projectors(grid_b)
        degrees = [np.array([AnalyzerAngle(x).degrees for x in grid]) for grid in (grid_a, grid_b)]
        for got in (quantum._born_grid(state.matrix, pa, pb),
                    quantum_model(state).kernel(*degrees)[:, :, 0]):
            assert got.shape == (len(grid_a), len(grid_b), 2, 2)
            assert_both_references(got, state.matrix, grid_a, grid_b)

    def test_empty_grids(self):
        """A side with no angles gives an empty table of the right shape,
        as the einsum did."""
        model = quantum_model()
        assert model.table([]).shape == (0, 0, 1, 2, 2)
        assert model.cells([0.0], []).shape == (1, 0, 1, 2, 2)
        assert model.cells([], [0.0, 22.5]).shape == (0, 2, 1, 2, 2)
        for grid_a, grid_b in (([], []), ([0.0], []), ([], [0.0]), ([0.0, 45.0], []), ([], [0.0, 45.0])):
            want = einsum_pairs(quantum.PHI_PLUS.matrix, grid_a, grid_b).shape
            pa, pb = quantum._projectors(grid_a), quantum._projectors(grid_b)
            assert quantum._born_grid(quantum.PHI_PLUS.matrix, pa, pb).shape == want
            got = model.kernel(np.array(grid_a, dtype=float), np.array(grid_b, dtype=float))
            assert got.shape == (*want[:2], 1, 2, 2)

    def test_no_joint_path_calls_einsum(self, monkeypatch):
        """A state's reduced states, a scalar joint and conditional, 4- and
        24-angle quantum tables and a CHSH value all run with ``np.einsum``
        raising."""
        def einsum(*args, **kwargs):
            raise AssertionError("np.einsum called")

        monkeypatch.setattr(quantum.np, "einsum", einsum)
        state = PhotonPairState(quantum.PHI_PLUS.matrix * 1.0)
        born_joint(state, 0.0, 22.5)
        born_conditional(state, 0.0, 22.5, (Wing.A, V))
        model = quantum_model(state)
        for count in (4, 24):
            assert model.table([7.5 * k for k in range(count)]).shape == (count, count, 1, 2, 2)
        assert chsh(model, 0.0, 45.0, 22.5, -22.5) == pytest.approx(2.0 * math.sqrt(2.0))
        with pytest.raises(AssertionError, match="einsum"):
            np.einsum("ii->", np.eye(2))


@st.composite
def signed_zero_matrices(draw):
    """A density matrix with some of its zero real or imaginary parts
    negated, so the partial traces meet -0.0 terms."""
    m = draw(st.sampled_from([quantum.PHI_PLUS.matrix, DIAGONAL.matrix,
                              product_polarized(0.0, 90.0).matrix])).copy()
    flips = draw(st.lists(st.booleans(), min_size=32, max_size=32))
    parts = np.stack([m.real, m.imag]).reshape(32)
    parts[(parts == 0.0) & np.array(flips)] = -0.0
    return parts[:16].reshape(4, 4) + 1j * parts[16:].reshape(4, 4)


class TestPartialTraceIsTheEinsum:
    @given(st.one_of(density_matrices(), signed_zero_matrices()))
    @example(np.full((4, 4), complex(-0.0, -0.0)) + np.diag([1.0, 0.0, 0.0, 0.0]))
    @settings(max_examples=300, deadline=None)
    def test_bit_for_bit(self, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        reshaped = matrix.reshape(2, 2, 2, 2)
        for wing, spec in ((Wing.A, "ikjk->ij"), (Wing.B, "kikj->ij")):
            got = quantum._partial_trace(matrix, wing)
            want = np.einsum(spec, reshaped)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (wing, got, want)


#: The edge values of the check: both zeros, the tolerance band's ends on
#: both sides, just past them, NaN, and two ordinary probabilities.
EDGES = [-0.0, 0.0, ATOL, -ATOL, 1.0 - ATOL, 1.0 + ATOL, -2e-12, 1.0 + 2e-12, NAN, 0.5, 0.25]


class TestScalarChecksAreTheArrayChecks:
    def test_single_entries(self):
        for value, what in itertools.product(EDGES, ("marginal", "joint", "conditional")):
            want = outcome(array_clamped, [value], what)
            assert outcome(lambda: [quantum._probability(value, what)]) == want

    def test_marginal_pairs(self):
        """``born_marginal``'s check, two ``_probability`` calls in (V, H)
        order, against the array clamp of the pair."""
        for v, h in itertools.product(EDGES, repeat=2):
            want = outcome(array_clamped, [v, h], "marginal")
            got = outcome(lambda: [quantum._probability(p, "marginal") for p in (v, h)])
            assert got == want, (v, h)

    def test_joint_distribution(self):
        joints = list(itertools.product(EDGES, repeat=4))
        # sums off by 2e-12 and by just under ATOL, from either side
        for off in (2e-12, -2e-12, 0.9e-12, -0.9e-12):
            joints += [(0.25, 0.25, 0.25, 0.25 + off), (0.5 + off, 0.5, 0.0, -0.0),
                       (0.0, 0.0, 0.0, 1.0 + off), (off, 0.5, 0.5, 0.0)]
        for cells in joints:
            def scalar():
                j = JointDistribution(*cells)
                return j.vv, j.vh, j.hv, j.hh
            assert outcome(scalar) == outcome(array_joint, cells), cells

    def test_conditional(self):
        givens = [(wing, label) for wing in Wing for label in (V, H)]
        denoms = [1.0, 0.5, 1e-3, 1e-13, 2e-14, 1e-14, 0.0, -0.0, NAN]
        # ratios near and past both ends of [0, 1], for the slack branch
        ratios = [-0.0, 0.0, -1e-13, 1.0 + 1e-13, -2e-12, 1.0 + 2e-12, 0.5, 1.0,
                  -5e-3, 1.0 + 5e-3, -1e-2, 1.0 + 1e-2, NAN]
        for denom, (wing, label) in itertools.product(denoms, givens):
            index = 0 if label is V else 1
            # the two cells that ``given`` selects, in (vv, vh, hv, hh) order
            slots = (2 * index, 2 * index + 1) if wing is Wing.A else (index, index + 2)
            pairs = itertools.chain(
                itertools.product(EDGES, repeat=2),
                itertools.product([r * denom for r in ratios], repeat=2),
            )
            for x, y in pairs:
                joint = [0.125] * 4
                joint[slots[0]], joint[slots[1]] = x, y
                want = outcome(array_conditional, joint, denom, (wing, label))
                cells = SimpleNamespace(vv=joint[0], vh=joint[1], hv=joint[2], hh=joint[3])
                got = outcome(quantum._conditional, cells, denom, (wing, label))
                assert got == want, (joint, denom, wing, label)
