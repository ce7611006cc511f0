"""The README's library quick start runs and prints what its comments
say, and the package exports no name that nothing calls."""

import ast
from pathlib import Path

import pytest

import bellsim
from bellsim.chance import CausalVerdictKind

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> tuple[str, list]:
    """The ```python block under "Library quick start", and the value of
    each of its expression statements, in order."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), str(README), "eval"), namespace))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), namespace)
    return block, values


def test_quick_start_values():
    block, values = quick_start()
    vv, correlation, chsh, chance, kind, empirical_chsh, conditions = values
    assert vv == 0.42677669529663687
    assert correlation == 0.7071067811865475
    assert chsh == 2.8284271247461903
    assert chance == 0.8535533905932737
    assert kind is CausalVerdictKind.SENSELESS_INTERVENTION
    assert isinstance(empirical_chsh, float)
    assert conditions == [
        "parameter_independence", "outcome_independence", "factorizability", "no_signalling"]
    for stated in (repr(vv), repr(correlation), repr(chsh), repr(chance), str(kind),
                   repr(conditions)):
        assert f"# {stated}" in block, stated


@pytest.mark.parametrize("name", ["maximally_mixed_pair", "save_scenario",
                                  "replace_preparation_intervention"])
def test_uncalled_names_are_not_exported(name):
    with pytest.raises(ImportError):
        exec(f"from bellsim import {name}", {})


def test_uncalled_methods_are_gone():
    assert not hasattr(bellsim.PhotonPairState, "purity")
    assert not hasattr(bellsim.SingleWingState, "purity")
    assert not hasattr(bellsim.ReportBundle, "from_json_dict")
    assert not hasattr(bellsim.JointDistribution, "as_array")
    assert not hasattr(bellsim.AnalyzerAngle, "separation")
