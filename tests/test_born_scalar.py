"""The scalar and grid Born paths against the numpy forms they replace,
bit for bit.

``born_marginal`` is Python-float arithmetic on the reduced state's real
entries, and one joint or marginal is checked on its four or two floats.
The references below are the former numpy forms: the ``"ij,mji->m"``
marginal einsum, ``_validated``/``_clamp_probabilities`` on arrays and
the array ratio-slack-clamp step of ``_conditional``. A grid of more than
``_EINSUM_PAIRS`` angle pairs sums the joint einsum's terms by
broadcasting (``_born_grid``); its reference is the
``"ikjl,xmji,ynlk->xymn"`` einsum itself. Equality is exact, sign of zero
included. If a numpy sums an einsum in another order, these tests fail;
the scalar and grid forms then have to follow it.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim import quantum
from bellsim.quantum import (
    ATOL,
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


def einsum_marginal(state, wing, angle):
    """The former ``born_marginal``: one einsum, then the array clamp."""
    local = reduced_state(state, wing).matrix
    p = np.einsum("ij,mji->m", local, quantum._projectors([angle])[0]).real
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


class TestScalarBornIsTheEinsum:
    @given(states, angles, angles)
    @example(product_polarized(0.0, 0.0), 0.0, 90.0)
    @example(product_polarized(22.5, 90.0), 112.5, 0.0)
    @example(quantum.PHI_PLUS, 45.0, -22.5)
    @example(PhotonPairState(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)), 0.0, 90.0)
    @settings(max_examples=500, deadline=None)
    def test_marginal_bit_for_bit(self, state, angle_a, angle_b):
        for wing, angle in ((Wing.A, angle_a), (Wing.B, angle_b)):
            assert_bits_equal(born_marginal(state, wing, angle), einsum_marginal(state, wing, angle))

    @given(states, angles, angles)
    @example(product_polarized(0.0, 0.0), 0.0, 0.0)
    @example(product_polarized(90.0, 0.0), 89.99999, 0.0)
    @settings(max_examples=300, deadline=None)
    def test_joint_and_conditional_bit_for_bit(self, state, a, b):
        raw = quantum._born_pairs(state.matrix, quantum._projectors([a]), quantum._projectors([b]))
        cells = array_joint(raw.reshape(4).tolist())
        j = born_joint(state, a, b)
        assert_bits_equal((j.vv, j.vh, j.hv, j.hh), cells)
        for wing in Wing:
            angle = a if wing is Wing.A else b
            for label, denom in zip((V, H), einsum_marginal(state, wing, angle)):
                given_ = (wing, label)
                want = outcome(array_conditional, cells, denom, given_)
                assert outcome(born_conditional, state, a, b, given_) == want


def einsum_pairs(rho, pa, pb):
    """The joint einsum of ``_born_pairs``, at every grid size."""
    return np.einsum("ikjl,xmji,ynlk->xymn", rho.reshape(2, 2, 2, 2), pa, pb).real


def bits(values):
    """An array's float64 bit patterns in [a, b, outcome_a, outcome_b] order."""
    return np.ascontiguousarray(values).view(np.uint64)


#: The 22.5-degree grid from -180 to 180, 17 angles: 289 angle pairs.
GRID_22_5 = [22.5 * k for k in range(-8, 9)]

grid_states = st.one_of(states, st.just(quantum.PHI_PLUS))
#: 1 to 40 angles, so both sides of ``_EINSUM_PAIRS`` are drawn.
grids = st.lists(angles, min_size=1, max_size=40)


class TestGridBornIsTheEinsum:
    @given(grid_states, grids, grids)
    @example(quantum.PHI_PLUS, GRID_22_5, GRID_22_5)
    @example(product_polarized(22.5, 90.0), GRID_22_5, [0.0, 45.0])
    @example(PhotonPairState(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)), GRID_22_5, [90.0])
    @settings(max_examples=300, deadline=None)
    def test_broadcast_sum_bit_for_bit(self, state, grid_a, grid_b):
        pa, pb = quantum._projectors(grid_a), quantum._projectors(grid_b)
        want = bits(einsum_pairs(state.matrix, pa, pb))
        for got in (quantum._born_grid(state.matrix, pa, pb),
                    quantum._born_pairs(state.matrix, pa, pb)):
            assert got.shape == (len(grid_a), len(grid_b), 2, 2)
            mismatched = np.argwhere(bits(got) != want)
            assert mismatched.size == 0, (mismatched[:4], grid_a, grid_b)

    def test_small_grids_keep_the_einsum(self, monkeypatch):
        """Up to ``_EINSUM_PAIRS`` angle pairs, a scalar joint and a 4-angle
        CHSH grid included, ``_born_pairs`` does not broadcast."""
        def broadcast(*args):
            raise AssertionError("small grid took the broadcast path")

        monkeypatch.setattr(quantum, "_born_grid", broadcast)
        born_joint(quantum.PHI_PLUS, 0.0, 22.5)
        rho = quantum.PHI_PLUS.matrix
        for nx, ny in ((1, 1), (4, 4), (1, 20), (20, 1), (2, 10)):
            quantum._born_pairs(rho, quantum._projectors([0.0] * nx), quantum._projectors([22.5] * ny))
        with pytest.raises(AssertionError, match="broadcast"):
            quantum._born_pairs(rho, quantum._projectors([0.0] * 3), quantum._projectors([22.5] * 7))


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
