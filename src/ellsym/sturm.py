"""Univariate real-root isolation over exact rationals via Sturm chains.

Polynomials are coefficient lists, lowest degree first, int or Fraction
entries. The chain is in ints, by primitive pseudo-remainders (Brown & Traub,
J. ACM 18 (1971)): each member is a positive multiple of the rational one. The
generalized Sturm theorem used here counts *distinct* real roots, which is
what the ellipticity decision needs (det G >= 0 makes every real zero a
multiple root, with no sign change to bisect on).
"""

from __future__ import annotations

from fractions import Fraction

from .ratlinalg import primitive

INTERVAL_WIDTH = Fraction(1, 10**14)  # of an isolated root's ('interval', lo, hi)


def trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def degree(p):
    p = trim(p)
    return len(p) - 1 if p else -1


def derivative(p):
    return trim([c * i for i, c in enumerate(p)][1:])


def pseudo_remainder(a, b):
    """prem(a, b) = lc(b)^(δ+1)·a mod b, δ = deg a − deg b >= 0, without division."""
    a, b = trim(a), trim(b)
    lead, r = b[-1], list(a)
    for shift in range(len(a) - len(b), -1, -1):
        top = r.pop()
        r = [lead * c for c in r]
        for i, c in enumerate(b[:-1]):
            r[i + shift] -= top * c
    return trim(r)


def _positive_primitive(p):
    """The primitive int multiple of p with a positive factor."""
    sign = -1 if next((c for c in p if c), 0) < 0 else 1
    return [sign * c for c in primitive(p)]


def sturm_chain(p):
    """p, p′, then −rem(a, b) up to a positive factor: prem(a, b) times
    −sign(lc b)^(δ+1), over its content."""
    chain = [_positive_primitive(trim(p))]
    dp = derivative(chain[0])
    if dp:
        chain.append(_positive_primitive(dp))
        while degree(chain[-1]) > 0:
            a, b = chain[-2], chain[-1]
            rem = pseudo_remainder(a, b)
            if not rem:
                break
            flip = 1 if b[-1] < 0 and (len(a) - len(b)) % 2 == 0 else -1
            chain.append(_positive_primitive([flip * c for c in rem]))
    return chain


def _sign(x):
    return (x > 0) - (x < 0)


def _variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _signs_at(chain, x):
    """The sign of each q(x), from the int form Σ q_i·n^i·d^(deg q − i) of x = n/d, d > 0."""
    n, d, out = x.numerator, x.denominator, []
    for q in chain:
        acc, dpow = 0, 1
        for c in reversed(q):
            acc, dpow = acc * n + c * dpow, dpow * d
        out.append(_sign(acc))
    return out


def variations_at_inf(chain, positive):
    """Sign changes at ±∞, read off the leading coefficients of the trimmed chain."""
    return _variations([_sign(q[-1]) * (1 if positive or len(q) % 2 else -1) for q in chain if q])


def root_bound(p):
    """Cauchy bound: all real roots lie strictly inside (-B, B), a Fraction; the
    same for every positive multiple of p."""
    p = trim(p)
    lead = abs(p[-1])
    return 1 + max((Fraction(abs(c), lead) for c in p[:-1]), default=Fraction(0))


def isolate_a_root(p):
    """Shrink an interval around one real root of p, on one Sturm chain.

    Returns None when p has no real root, ('exact', r) when a rational root is
    pinned down, otherwise ('interval', lo, hi) with hi - lo <= INTERVAL_WIDTH
    containing a root. p is read only to build the chain; chain[0] is a positive
    multiple of p, so it has p's root bound and p's sign.
    """
    chain = sturm_chain(p)
    if variations_at_inf(chain, False) == variations_at_inf(chain, True):
        return None
    bound = root_bound(chain[0])
    lo, hi = -bound, bound
    v_lo = _variations(_signs_at(chain, lo))
    while hi - lo > INTERVAL_WIDTH:
        mid = (lo + hi) / 2
        signs = _signs_at(chain, mid)
        if not signs[0]:
            return ("exact", mid)
        v_mid = _variations(signs)
        if v_lo - v_mid > 0:
            hi = mid
        else:
            lo, v_lo = mid, v_mid
    # try small-denominator rationals inside the bracket; lo and hi are no
    # roots: ±bound lies outside them all, and every mid was tested
    for cand in _rational_candidates((lo + hi) / 2):
        if lo <= cand <= hi and not _signs_at(chain[:1], cand)[0]:
            return ("exact", cand)
    return ("interval", lo, hi)


def _rational_candidates(x):
    """The closest rational to x with denominator <= 10^9, then x rounded
    to a few small denominators."""
    return [Fraction(x).limit_denominator(10**9)] + [Fraction(round(x * d), d) for d in (1, 2, 3, 4, 6, 8, 12)]
