"""The package's public surface and its source-level rules."""

import ast
import importlib
import pathlib

import pytest

import datamarket

SUBMODULES = ("market", "estimators", "equilibrium", "welfare", "oracle")
PACKAGE_DIR = pathlib.Path(datamarket.__file__).parent

# Public names deleted because no command used them, because the solve
# and the oracles no longer share a coupling system, because the
# vectorized source response replaced them, because complete_solution
# builds the whole payment polytope, or because the payment means, the
# best responses and the fixed point are certified in closed form rather
# than simulated, searched or iterated, or because one error says that
# welfare is undefined; see CHANGES.md.
DELETED = {
    "market": ("effort_from_d_total", "variance_from_d_total"),
    "estimators": ("h_weight", "loo_weight_tensor", "loss_weight_matrix"),
    "equilibrium": ("CouplingSystem", "build_coupling_system", "c_polytope", "canonical_c",
                    "coupling_radius"),
    "welfare": ("social_loss", "social_optimum_efforts", "EtaNotOneError", "DegenerateSourceError"),
    "oracle": ("eval_buyer_cost", "monte_carlo_payments", "best_response_check", "neumann_dynamics",
               "NeumannResult", "NEUMANN_MAX_ITERS", "NEUMANN_TOL"),
    "cli": ("market_to_config", "MAX_CHECK_GRID"),
}


def test_package_exports_exactly_the_submodule_exports():
    assert len(datamarket.__all__) == 34
    union = set()
    for name in SUBMODULES:
        union.update(importlib.import_module(f"datamarket.{name}").__all__)
    assert len(datamarket.__all__) == len(set(datamarket.__all__))
    assert set(datamarket.__all__) == union
    for name in datamarket.__all__:
        assert getattr(datamarket, name) is not None


@pytest.mark.parametrize("module, name", [(mod, n) for mod, names in DELETED.items() for n in names])
def test_deleted_calls_stay_deleted(module, name):
    with pytest.raises(ImportError):
        exec(f"from datamarket.{module} import {name}", {})
    with pytest.raises(ImportError):
        exec(f"from datamarket import {name}", {})


def test_package_has_no_assert_statements():
    # python -O strips asserts, so invariants must raise typed errors
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
