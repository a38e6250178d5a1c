"""Univariate real-root counting over exact rationals via Sturm chains.

Polynomials are coefficient lists, lowest degree first, Fraction entries.
The generalized Sturm theorem used here counts *distinct* real roots, which
is what the ellipticity decision needs (det G >= 0 makes every real zero a
multiple root).
"""

from __future__ import annotations

from fractions import Fraction


def trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def degree(p):
    p = trim(p)
    return len(p) - 1 if p else -1


def evaluate(p, x):
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(trim(p)):
        acc = acc * x + c
    return acc


def derivative(p):
    return trim([c * i for i, c in enumerate(p)][1:])


def remainder(a, b):
    """Polynomial remainder of a by b over the rationals."""
    a = list(trim(a))
    b = trim(b)
    db = degree(b)
    assert db >= 0
    lead = b[-1]
    while degree(a) >= db:
        da = degree(a)
        factor = a[-1] / lead
        shift = da - db
        for i, c in enumerate(b):
            a[i + shift] -= factor * c
        a = list(trim(a))
        if not a:
            break
    return a


def sturm_chain(p):
    p = trim(p)
    chain = [p]
    dp = derivative(p)
    if dp:
        chain.append(dp)
        while degree(chain[-1]) > 0:
            rem = remainder(chain[-2], chain[-1])
            if not rem:
                break
            chain.append([-c for c in rem])
    return chain


def _sign(x):
    return (x > 0) - (x < 0)


def _variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def variations_at(chain, x):
    return _variations([_sign(evaluate(q, x)) for q in chain])


def variations_at_inf(chain, positive):
    signs = []
    for q in chain:
        q = trim(q)
        if not q:
            signs.append(0)
            continue
        lead = _sign(q[-1])
        if not positive and (len(q) - 1) % 2 == 1:
            lead = -lead
        signs.append(lead)
    return _variations(signs)


def count_real_roots(p, lo=None, hi=None):
    """Number of distinct real roots in (lo, hi]; None bounds mean ±infinity."""
    p = trim(p)
    if degree(p) <= 0:
        return 0
    chain = sturm_chain(p)
    va = variations_at(chain, lo) if lo is not None else variations_at_inf(chain, False)
    vb = variations_at(chain, hi) if hi is not None else variations_at_inf(chain, True)
    return va - vb


def root_bound(p):
    """Cauchy bound: all real roots lie strictly inside (-B, B)."""
    p = trim(p)
    lead = abs(p[-1])
    return 1 + max((abs(c) / lead for c in p[:-1]), default=Fraction(0))


def isolate_a_root(p, width=Fraction(1, 10**14)):
    """Shrink an interval around one real root of p, on one Sturm chain.

    Returns None when p has no real root, ('exact', r) when a rational root is
    pinned down, otherwise ('interval', lo, hi) with hi - lo <= width
    containing a root.
    """
    p = trim(p)
    chain = sturm_chain(p)
    if variations_at_inf(chain, False) == variations_at_inf(chain, True):
        return None
    bound = root_bound(p)
    lo, hi = -bound, bound
    v_lo = variations_at(chain, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if evaluate(p, mid) == 0:
            return ("exact", mid)
        v_mid = variations_at(chain, mid)
        if v_lo - v_mid > 0:
            hi = mid
        else:
            lo, v_lo = mid, v_mid
    # try small-denominator rationals inside the bracket
    mid = (lo + hi) / 2
    for cand in _rational_candidates(mid):
        if lo <= cand <= hi and evaluate(p, cand) == 0:
            return ("exact", cand)
    if evaluate(p, lo) == 0:
        return ("exact", lo)
    if evaluate(p, hi) == 0:
        return ("exact", hi)
    return ("interval", lo, hi)


def _rational_candidates(x, max_den=10**9):
    """Continued-fraction convergents of x with modest denominators."""
    out = []
    frac = Fraction(x).limit_denominator(max_den)
    out.append(frac)
    for den in (1, 2, 3, 4, 6, 8, 12):
        out.append(Fraction(round(x * den), den))
    return out
