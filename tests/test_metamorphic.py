"""Verdicts are invariant under rational changes of variables ξ ↦ Lξ.

For an invertible rational L, im A_L(ξ) = im A(Lξ), so ellipticity, I_A, K_C,
canceling, cocanceling and CC do not move, with the same bases of E; and
M_{A_L}e = |det L|⁻¹·(L⁻¹)^{⊗(k−n)}·M_A e, so weak cancellation and CWC do not
move either. A transformed run may still come out weaker than the original: a
numeric verdict, or none, where the original was exact. WEAKER pins each such
run as read today; no run may be weaker than it says, and an entry is only
ever removed or raised.
"""

import importlib.util

import pytest

from ellsym import parse_system, run_full_check
from ellsym.operators import SystemSpec
from genops import ROOT, substitute

SYSTEMS = sorted(p.stem for p in (ROOT / "systems").glob("*.sys"))
SEEDS = (1, 2, 3)
RUNGS = 10  # per seed: eight elliptic rungs, then two square ones


def _ladder(seed):
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "perfbench" / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    return ladder.build_ladder(seed)


def _diag(n, first):
    return [[(first if i == 0 else 1) if i == j else 0 for j in range(n)] for i in range(n)]


MAPS = {
    "cycle": lambda n: [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)],
    "flip": lambda n: _diag(n, -1),
    "shear": lambda n: [[int(i == j or (i, j) == (0, 1)) for j in range(n)] for i in range(n)],
    "x2": lambda n: _diag(n, 2),
    "x3": lambda n: _diag(n, 3),
}

NOT_ORTHOGONAL = ("shear", "x2", "x3")
SQUARE_RUNGS = tuple(f"seed{s}/{i}" for s in SEEDS for i in (8, 9))

# (operator, map) -> (ellipticity, weak, CWC) strength of the transformed run,
# where it is below the original's: 2 exact, 1 numeric, 0 no verdict
WEAKER = {
    ("biharmonic_div_r4", "shear"): (0, 0, 0),
    ("biharmonic_div_r4", "x2"): (0, 1, 2),
    ("biharmonic_div_r4", "x3"): (0, 0, 0),
    **{("divcurl_r3", m): (1, 0, 0) for m in NOT_ORTHOGONAL},
    **{("laplacian_div_r2", m): (2, 1, 2) for m in NOT_ORTHOGONAL},
    **{(op, m): (2, 1, 1) for m in NOT_ORTHOGONAL for op in ("laplacian_r2", *SQUARE_RUNGS)},
    **{(op, "x3"): (0, 2, 2) for op in ("seed1/4", "seed1/5", "seed2/4", "seed3/4", "seed3/5")},
}

_ELLIPTIC = {"yes": 2, "no": 2, "numerically_positive": 1, "inconclusive": 0}
_SIDE = {"yes": True, "numerically_positive": True, "no": False, "inconclusive": None}


def _strength(report):
    def weak(v):
        return 0 if v is None else 1 if v["method"] == "quadrature" else 2

    return _ELLIPTIC[report["elliptic"]["status"]], weak(report["weak"]), weak(report["CWC"])


def _operators():
    out = [(name, (ROOT / "systems" / f"{name}.sys").read_text()) for name in SYSTEMS]
    for seed in SEEDS:
        rungs = _ladder(seed)
        assert len(rungs) == RUNGS
        out += [(f"seed{seed}/{i}", rung.text) for i, rung in enumerate(rungs)]
    return out


OPERATORS = _operators()


def test_the_gate_runs_36_operators_under_5_maps():
    assert len(OPERATORS) == 36 and len(MAPS) == 5
    assert len(WEAKER) <= 35  # 35 weaker runs when the gate was set; never more


@pytest.mark.parametrize("name, text", OPERATORS, ids=[name for name, _ in OPERATORS])
def test_verdicts_are_invariant_under_a_change_of_variables(name, text):
    system = parse_system(text)
    original = run_full_check(system).to_json()
    for label, make in MAPS.items():
        mat = make(system.n)
        c = None if system.c is None else substitute(system.c, mat)
        run = run_full_check(SystemSpec(substitute(system.a, mat), c, system.n)).to_json()
        where = f"{name} under {label}"
        before, after = _SIDE[original["elliptic"]["status"]], _SIDE[run["elliptic"]["status"]]
        assert None in (before, after) or before == after, where
        for key in ("weak", "CWC"):
            if original[key] is not None and run[key] is not None:
                assert original[key]["holds"] == run[key]["holds"], (where, key)
        for key in ("I_A_basis", "K_C_basis", "canceling", "cocanceling", "CC"):
            assert run[key] == original[key], (where, key)
        floor = WEAKER.get((name, label), _strength(original))
        assert all(x >= y for x, y in zip(_strength(run), floor)), (where, _strength(run), floor)
