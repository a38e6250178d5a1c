"""Verdicts are invariant under rational changes of variables ξ ↦ Lξ, and under
constant changes of basis A ↦ P·A·Q, C ↦ C·P⁻¹ on E and V.

For an invertible rational L, im A_L(ξ) = im A(Lξ), so ellipticity, I_A, K_C,
canceling, cocanceling and CC do not move, with the same bases of E; and
M_{A_L}e = |det L|⁻¹·(L⁻¹)^{⊗(k−n)}·M_A e, so weak cancellation and CWC do not
move either. For invertible rational P and Q, A′(ξ) = P·A(ξ)·Q is injective
where A(ξ) is and im A′(ξ) = P·im A(ξ), so I_A′ = P·I_A and K_C′ = P·K_C, and
canceling, cocanceling and CC do not move; A′†(ξ)·Pe = Q⁻¹·A†(ξ)e for e ∈ I_A,
so M_{A′}·Pe = (Q⁻¹ ⊗ I)·M_A e, and weak cancellation and CWC do not move
either. A transformed run may still come out weaker than the original: a
numeric verdict, or none, where the original was exact. WEAKER and WEAKER_PQ
pin each such run as read when the gates were set; no run may be weaker than
they say, and an entry is only ever removed or raised.
"""

import importlib.util
import random
from fractions import Fraction

import pytest

from ellsym import parse_system, run_full_check
from ellsym.operators import SystemSpec
from ellsym.ratlinalg import Subspace, inverse
from genops import ROOT, image_of, random_invertible_matrix, substitute, transform

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


# (operator, run) -> strength of a P·A(Lξ)·Q run where it is below the original's:
# the sampler under a scaled or mixed basis, and, after a dense L, the isotropic
# paths lost as under "shear" in WEAKER
WEAKER_PQ = {
    **{("divcurl_r3", run): (1, 0, 0) for run in ("diagonal", "dense", "L·dense")},
    **{(op, "diagonal"): (0, 2, 2) for op in ("seed1/4", "seed1/5", "seed2/5")},
    **{(op, "L·dense"): (0, 0, 0) for op in ("biharmonic_div_r4", "quartic_r4")},
    ("laplacian_div_r2", "L·dense"): (2, 1, 2),
    **{(op, "L·dense"): (2, 1, 1) for op in ("laplacian_r2", "seed1/8", "seed2/8", "seed2/9", "seed3/8", "seed3/9")},
    ("seed1/9", "L·dense"): (2, 0, 0),
    **{(op, "L·dense"): (0, 2, 2) for op in ("seed1/5", "seed1/6", "seed1/7", "seed2/4", "seed2/5", "seed2/6",
                                             "seed2/7", "seed3/4", "seed3/5", "seed3/6")},
}


def _pq_runs(name, n, dim_e, dim_v):
    """(label, L, P, Q) of the three P·A(Lξ)·Q runs of one operator, from a seed of its
    name: power-of-ten diagonal P and Q (10⁰ to 10³), dense rational P and Q, and the
    dense P and Q after a dense rational L."""
    rng = random.Random(name)

    def powers(dim):
        return [[10 ** rng.randint(0, 3) if i == j else 0 for j in range(dim)] for i in range(dim)]

    diag = powers(dim_e), powers(dim_v)
    dense = random_invertible_matrix(rng, dim_e), random_invertible_matrix(rng, dim_v)
    return [("diagonal", None, *diag), ("dense", None, *dense),
            ("L·dense", random_invertible_matrix(rng, n), *dense)]


def _subspace(dim, basis):
    return Subspace.from_vectors(dim, [[Fraction(x) for x in v] for v in basis])


def test_the_basis_gate_runs_36_operators_three_times():
    assert len(OPERATORS) == 36 and all(len(_pq_runs(name, 3, 2, 1)) == 3 for name, _ in OPERATORS)
    assert len(WEAKER_PQ) <= 26  # 26 weaker runs when the gate was set; never more


@pytest.mark.parametrize("name, text", OPERATORS, ids=[name for name, _ in OPERATORS])
def test_verdicts_are_invariant_under_a_change_of_basis(name, text):
    system = parse_system(text)
    a = system.a
    original = run_full_check(system).to_json()
    for label, lmat, p, q in _pq_runs(name, system.n, a.target_dim, a.source_dim):
        moved = a if lmat is None else substitute(a, lmat)
        c = None
        if system.c is not None:
            c = system.c if lmat is None else substitute(system.c, lmat)
            c = transform(c, [[int(i == j) for j in range(c.target_dim)] for i in range(c.target_dim)], inverse(p))
        run = run_full_check(SystemSpec(transform(moved, p, q), c, system.n)).to_json()
        where = f"{name} under {label}"
        before, after = _SIDE[original["elliptic"]["status"]], _SIDE[run["elliptic"]["status"]]
        assert None in (before, after) or before == after, where
        for key in ("weak", "CWC"):
            if original[key] is not None and run[key] is not None:
                assert original[key]["holds"] == run[key]["holds"], (where, key)
        # a verdict that the original skips (it is not elliptic) may come back where the run is undecided
        for key in ("I_A_basis", "K_C_basis", "canceling", "cocanceling", "CC"):
            if before is not None and before == after:
                assert (original[key] is None) == (run[key] is None), (where, key)
            if original[key] is None or run[key] is None:
                continue
            if key.endswith("basis"):
                moved_basis = image_of(_subspace(a.target_dim, original[key]), p)
                assert _subspace(a.target_dim, run[key]) == moved_basis, (where, key)
            elif key == "CC":  # its witness moves to P·e
                assert run[key]["holds"] == original[key]["holds"], (where, key)
            else:
                assert run[key] == original[key], (where, key)
        floor = WEAKER_PQ.get((name, label), _strength(original))
        assert all(x >= y for x, y in zip(_strength(run), floor)), (where, _strength(run), floor)
