"""The array-valued model kernel against the scalar definitions it replaced.

Model tables, correlations and sampler cells all come from one kernel
call per request. These tests pin that path to the scalar Born rule and
the scalar hidden-axis rule bit for bit, pin ``bellsim simulate`` output
to golden SHA-256 digests, and check the no-signalling and Tsirelson
invariants for random density matrices.
"""

import contextlib
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.cli import main
from bellsim.hidden_variables import DEFAULT_LAMBDA_NODES, builtin_vector_model
from bellsim.locality import (
    ProbabilityModel,
    check_no_signalling,
    chsh,
    default_angle_grid,
    no_signalling_deviation,
    quantum_model,
    signalling_fixture_model,
)
from bellsim.quantum import (
    PhotonPairState,
    as_angle,
    bell_phi_plus,
    born_joint,
    product_polarized,
)
from strategies import density_matrices

angles = st.floats(-360.0, 360.0, allow_nan=False, allow_infinity=False)
grids = st.lists(angles, min_size=1, max_size=24)


class TestQuantumKernel:
    @given(density_matrices(), grids)
    @settings(max_examples=40, deadline=None)
    def test_table_equals_scalar_born_joint(self, matrix, grid):
        state = PhotonPairState(matrix)
        model = quantum_model(state)
        table = model.table(grid)
        assert table.shape == (len(grid), len(grid), 1, 2, 2)
        for i, a in enumerate(grid):
            for j, b in enumerate(grid):
                joint = born_joint(state, a, b)
                assert np.array_equal(table[i, j, 0], [[joint.vv, joint.vh], [joint.hv, joint.hh]])
        a, b = grid[0], grid[-1]
        assert model.correlation(a, b) == born_joint(state, a, b).correlation()
        assert model.joint(a, b, 0) == born_joint(state, a, b)

    def test_clamped_entries_match_scalar_born_joint(self):
        # these raw einsum entries dip just below 0 and above 1; both
        # paths clamp them the same way
        grid = [i * 7.5 for i in range(24)]
        for state in (bell_phi_plus(), product_polarized(30.0, 120.0)):
            table = quantum_model(state).table(grid)
            assert table.min() == 0.0 and table.max() <= 1.0
            for i, a in enumerate(grid):
                for j, b in enumerate(grid):
                    joint = born_joint(state, a, b)
                    assert np.array_equal(table[i, j, 0],
                                          [[joint.vv, joint.vh], [joint.hv, joint.hh]])

    @given(density_matrices(), grids, st.tuples(angles, angles, angles, angles))
    @settings(max_examples=60, deadline=None)
    def test_no_signalling_and_tsirelson(self, matrix, grid, quad):
        model = quantum_model(PhotonPairState(matrix))
        assert no_signalling_deviation(model, grid) <= 1e-12
        assert abs(chsh(model, *quad)) <= 2.0 * math.sqrt(2.0) + 1e-12

    def test_invalid_kernel_result_rejected(self):
        def kernel(a_deg, b_deg):
            return np.full((a_deg.size, b_deg.size, 1, 2, 2), 0.3)

        model = ProbabilityModel(np.array([1.0]), kernel)
        with pytest.raises(ValueError, match="sums to"):
            model.table([0.0])
        short = ProbabilityModel(np.array([1.0]), lambda a, b: np.zeros((1, 1, 1, 2)))
        with pytest.raises(ValueError, match="shape"):
            short.correlation(0.0, 0.0)


#: The vector model's hidden axes, the midpoint formula on Python floats.
NODES = [(i + 0.5) * (180.0 / DEFAULT_LAMBDA_NODES) for i in range(DEFAULT_LAMBDA_NODES)]


def scalar_response(lam: float, setting: float) -> float:
    """The hidden-axis rule as the per-cell kernel evaluated it."""
    return 1.0 if math.cos(4.0 * math.radians(lam - setting)) >= 0.0 else 0.0


def boundary_settings() -> list[float]:
    """Settings on the 180/2048 cell boundaries and on the nodes, near the
    response discontinuities, plus seeded random ones."""
    step = 180.0 / DEFAULT_LAMBDA_NODES
    cells = (0, 1, 2, 255, 256, 257, 511, 512, 513, 767, 768, 1024, 1536, 2046, 2047)
    on_boundaries = [k * step for k in cells]
    on_nodes = [(k + 0.5) * step for k in cells]
    rng = np.random.default_rng(2048)
    return [as_angle(x).degrees for x in on_boundaries + on_nodes + [22.5, 45.0, 67.5, 157.5]] + list(
        rng.uniform(0.0, 180.0, size=60)
    )


class TestVectorModelKernel:
    def test_nodes_are_the_midpoint_formula_bit_for_bit(self):
        """A setting 22.5 degrees to either side of a node sits on that
        node's response edge, cos(4 * 22.5 degrees) = 6e-17 > 0: the node
        answers V there, and a node one ulp away would answer H from one of
        the two sides (from 16 degrees up, where a node's ulp survives the
        subtraction)."""
        response = builtin_vector_model().responses[0]
        for offset in (-22.5, 22.5):
            settings_deg = np.array(NODES) + offset
            for start in range(0, DEFAULT_LAMBDA_NODES, 256):
                rows = response(settings_deg[start:start + 256])  # [setting, node]
                for k, i in enumerate(range(start, start + 256)):
                    assert rows[k, i] == scalar_response(NODES[i], settings_deg[i]) == 1.0

    def test_response_matrix_equals_scalar_rule(self):
        model = builtin_vector_model()
        settings_deg = boundary_settings()
        for response in model.responses:
            matrix = response(np.array(settings_deg))
            expected = np.array(
                [[scalar_response(lam, s) for lam in NODES] for s in settings_deg]
            )
            assert np.array_equal(matrix, expected)

    def test_table_is_outer_product_of_scalar_rule(self):
        model = builtin_vector_model()
        grid = [0.0, 180.0 / DEFAULT_LAMBDA_NODES, 22.5, 101.25]
        table = model.table(grid)
        for i, a in enumerate(grid):
            for j, b in enumerate(grid):
                # [lambda, (V, H)] for each wing, then their per-lambda outer product
                wa = np.array([[p, 1.0 - p] for p in (scalar_response(l, a) for l in NODES)])
                wb = np.array([[p, 1.0 - p] for p in (scalar_response(l, b) for l in NODES)])
                assert np.array_equal(table[i, j], wa[:, :, None] * wb[:, None, :])

    def test_correlation_is_table_reduction(self):
        model = builtin_vector_model()
        grid = [3.0, 48.0, 91.7]
        table = model.table(grid)
        for i, a in enumerate(grid):
            for j, b in enumerate(grid):
                cells = table[i, j]
                per_lambda = (cells[:, 0, 0] + cells[:, 1, 1]) - (cells[:, 0, 1] + cells[:, 1, 0])
                assert model.correlation(a, b) == float(np.dot(model.weights, per_lambda))


# -- golden bytes ----------------------------------------------------------------

SCHEDULES = {
    "chsh-optimal": "chsh-optimal",
    "custom": [[10.0, 37.3], [10.0, 101.9], [123.4, 37.3]],
}

#: (report, trial log, stdout) SHA-256 digests of ``bellsim simulate``,
#: captured with the per-cell kernel before the array kernel replaced it.
#: The report digests of the two fixture/*/chsh-optimal entries were
#: re-captured when the no-signalling attachment gained its witness (the
#: only change to those reports; see ``test_fixture_no_signalling_report``).
GOLDEN = {
    "qm/3/chsh-optimal": (
        "79bb18054fbc4d991e898e935b18bf57848bb5746b11693f0ad409837fb9e845",
        "0360e82e1d0aedff88b19cb8b7c27ad5c10593848e515b09e22ac942b724a62a",
        "edb1e4579c1f40c373bee2ee199dd77e4dd75aa08a3bfddda40b884c3fc0cc66",
    ),
    "qm/3/custom": (
        "675c04be331adfda9fd41a45c0c36c566d5dbb77d95dbcead3a75c6b1d815c9a",
        "edfb8e8aad48fc18605c8069941898002457049f1ae7ff1cfd570bd7b632d252",
        "a2f9f2654ae621ff792567085a598179c724e3f9247ea78e0d19411dd63a684c",
    ),
    "qm/1099511627793/chsh-optimal": (
        "d6704ccbc0cebdd21447fe324998738351469105a49dda54aeea0a54bf89c78d",
        "a5cc77c743f443a3e7685a2c14bcff4f4f2baa448b7db355b1ed09701f1ab92f",
        "bf82a82db7eac19b8424ebb9584737581b83e035d490bcbb422ae2165d0c7f49",
    ),
    "qm/1099511627793/custom": (
        "90289d122c92c1917b7a2edea8f3a2bb0f5519e2d35c1175fb5217664ab33f7d",
        "7f66081182e7942354a50b68de8cc783b5c139baeffdf2af0914f37d3b5f9bbb",
        "62965f9e286c526bcface7c923402f48724e4bd03c01d0c80b111bb223e587d2",
    ),
    "lhv/3/chsh-optimal": (
        "32c619f1360b6fcfedd622aa4f03eff834d4bf18d0107cdf48446e7e3accade9",
        "b8493bff06b587f81dd3d5984bf51a0ea2f9ca72ae3a113b2d1b1bcc237f2f0b",
        "9ae01dfd2d813da68e63f3e755361214e795dd640f3cd398b3bb34022e4283a0",
    ),
    "lhv/3/custom": (
        "b5239e61160303d93aa0e87578ef6c210a3afe350c957f206624a191df167e4d",
        "d276c0cb5b6b66b40f75220ac5952e557d9604d90fb1aa8f8818f381400abba4",
        "34cad0b97f82958834ee44a321f99d737f6a70708faac7e3d9818f507c18b88d",
    ),
    "lhv/1099511627793/chsh-optimal": (
        "b36c39bf28d14231f740788e97e8916a34da19ad934f1eefed88366320f34e36",
        "fdb5232ec16c0ec07f2eac98c6619c67d3f0328286d17f0d9c383b0f8811b877",
        "605ab6bd435e8eaecd04085fbe2c9bbe87cbc03953fc0f405b087663316e50f4",
    ),
    "lhv/1099511627793/custom": (
        "8b7bdd91307635af859fdbe3643c16bbcd626270c56272379482b2280279ace9",
        "1014c2d6ee2dae54415a2d849974b218e1e0e65138597a6ef4a084308aac1f9c",
        "a404fd85315fc018581edb9853fcc358ca8d7d2da45029eb3f429d47eeda42bb",
    ),
    "fixture/3/chsh-optimal": (
        "920622bfb849d230e773efed2b1a6a11b5682dbe89160c46c7e3cd312178378b",
        "afae9e15594ac2803db2d851707b474834d70256e73f72e0de65752828b80a3f",
        "55de9f75d41361efbac7541f66ccf50c2bddeafa19f10ec9976de5edab9b368d",
    ),
    "fixture/3/custom": (
        "adedb062c94d42c5f03aceff250c5a1dd9ecb5f81acb73e7584be9d43296ea95",
        "04e204dde35c6e33aef304f79145936f88178177592c4c2b87380137bfc1147c",
        "43acb7dfd3090585dc81753a5abd1586425383778802e4a068215ebbb2f78f15",
    ),
    "fixture/1099511627793/chsh-optimal": (
        "42df4aec7b747b5ce0a67fb1fc438d45924b77c89f9ec6c1c39d64a5238bd363",
        "b72a0dbab7cafd19b34c3643d038a16f676ca4a57977d3724f9841fabd383f70",
        "d25e596ac9ccc6d03019666f880feb7e55b326627cb5d2aa0c2faf075c3a8608",
    ),
    "fixture/1099511627793/custom": (
        "294a54e9402f9df42b0dbf8ddbacf2ea01aaf50242be9ac6518dfb9339470229",
        "0bd0131e65462641be73ba862ec2f3ef253d92d9d2b2e1a6a4e72fb4ec08596e",
        "dd86109cffde95853a5ec11072e6b2a91316a455022700c75631bcfe2c5cf299",
    ),
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_simulate_output_is_byte_identical(key, tmp_path, monkeypatch):
    model, seed, schedule = key.split("/")
    report_format = "json" if schedule == "chsh-optimal" else "csv"
    config = {
        "model": model,
        "schedule": SCHEDULES[schedule],
        "trials": 300,
        "seed": int(seed),
        "report_path": "report." + report_format,
        "report_format": report_format,
        "trial_log_path": "trials.jsonl",
    }
    if schedule == "chsh-optimal":
        config["scenario"] = "overlap"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["simulate", "--config", "config.json"]) == 0

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    assert (
        digest((tmp_path / config["report_path"]).read_bytes()),
        digest((tmp_path / "trials.jsonl").read_bytes()),
        digest(stdout.getvalue().encode()),
    ) == GOLDEN[key]


def test_fixture_no_signalling_report():
    """The fixture's no-signalling verdict, against its definition: wing A's
    lambda-averaged P(V) is 0.75 when the remote analyzer sits at or beyond
    90 degrees and 0.5 below, and wing B's is 0.5 at every setting."""
    model = signalling_fixture_model()
    grid = default_angle_grid()
    table = model.table(grid)
    p_va = np.tensordot(table[..., 0, :].sum(axis=-1), model.weights, axes=([2], [0]))  # [a, b]
    p_vb = np.tensordot(table[..., 0].sum(axis=-1), model.weights, axes=([2], [0]))
    remote_far = np.array([g.degrees >= 90.0 for g in grid])
    assert np.array_equal(p_va, np.where(remote_far, 0.75, 0.5)[None, :].repeat(len(grid), 0))
    assert np.all(p_vb == 0.5)

    report = check_no_signalling(model, grid)
    witness = report.witness
    assert (report.condition, report.holds, report.max_deviation) == ("no_signalling", False, 0.25)
    assert (witness["wing"], witness["outcome"], witness["lambda_index"]) == ("A", "V", 0)
    assert witness["remote_angle_deg"] >= 90.0 and witness["probability_high"] == 0.75
    assert witness["remote_angle_alt_deg"] < 90.0 and witness["probability_low"] == 0.5
