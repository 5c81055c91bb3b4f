"""Packed-exponent sparse term kernel.

A monomial over ``nvars`` variables is one Python int:

    key = totdeg << (8*nvars)  |  e_{nvars-1} << 8*(nvars-1)  |  ...  |  e_0

Each exponent gets 8 bits and the total degree sits on top, so monomial
multiplication is a single integer addition and plain int comparison is a
graded order (ties broken lexicographically, the highest slot being most
significant).  Terms of a polynomial are a dict {key: GaussianRational};
zero coefficients are never stored.

Exponents must stay below 128 so that one addition can never carry across
slots; the degree field is checked once per product, which bounds every
slot.  Degrees that large never occur in this package.

Evaluation (``teval``) never builds a scalar per term: it works on the
integer triples (p + q*i)/d underneath the coefficients and the point,
keeps one numerator sum per denominator and normalizes once at the end.
This is what makes the null-point certificate of ``Poly.divided_by_x``
cheap.

Products work on the same triples: ``tmac`` adds c*a*b into an
accumulator of unnormalized triples, so a whole linear combination of
products is summed in plain ints, and ``tnorm`` normalizes each surviving
term once.  ``tmul`` is the two of them on an empty accumulator.  Exact
division by the quadratic x, behind ``Poly.divided_by_x``, is ``tdiv``:
Gaussian-integer pairs over one common denominator, the remainder's keys
ordered on a heap.

This is the only module that reads or builds keys, and with ``scalar``
the only one that reads the triples.  Every change of variables elsewhere
(conjugation, the inhomogeneous chart) is one ``rekey`` onto the keys of
``var_keys``.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache

from .scalar import ZERO, GaussianRational

SLOT = 8
MASK = 0xFF
DEG_CAP = 1 << (SLOT - 1)  # 128


def pack(exps) -> int:
    exps = tuple(exps)
    key = 0
    deg = 0
    for i, e in enumerate(exps):
        if e < 0 or e >= DEG_CAP:
            raise ValueError(f"exponent {e} out of packable range")
        key |= e << (SLOT * i)
        deg += e
    if deg >= DEG_CAP:
        raise ValueError(f"total degree {deg} out of packable range")
    return key | (deg << (SLOT * len(exps)))


def unpack(key: int, nvars: int) -> tuple:
    return tuple((key >> (SLOT * i)) & MASK for i in range(nvars))


def total_degree(key: int, nvars: int) -> int:
    return key >> (SLOT * nvars)


@lru_cache(maxsize=None)
def var_keys(nvars: int) -> tuple:
    """The key of each single variable over ``nvars`` slots.  Keys add
    under multiplication, so a monomial's key is sum_i e_i * var_keys[i]."""
    return tuple((1 << (SLOT * nvars)) | (1 << (SLOT * i)) for i in range(nvars))


def rekey(terms: dict, images) -> dict:
    """Substitute variable i by the monomial whose key is ``images[i]``,
    where 0 means "set to 1": a key's image is sum_i e_i * images[i], over
    the ``len(images)`` slots of the source keys.

    Images of degree <= 1 (0 or an entry of ``var_keys``) never raise the
    total degree, so the result stays packable.  Terms that land on the
    same key are merged with ``tcollect``.
    """
    slots = [(SLOT * i, img) for i, img in enumerate(images) if img]

    def image(k):
        out = 0
        for s, img in slots:
            out += ((k >> s) & MASK) * img
        return out

    return tcollect((image(k), c) for k, c in terms.items())


@lru_cache(maxsize=None)
def _guard(nvars: int) -> int:
    return sum(1 << (SLOT * i + SLOT - 1) for i in range(nvars + 1))


def divides(m: int, k: int, nvars: int) -> bool:
    """Whether the monomial m divides the monomial k: every slot keeps its
    top bit clear, so ``k - m`` borrows into a slot's top bit (the guard)
    exactly when some exponent of m exceeds the matching one of k."""
    return not (k - m) & _guard(nvars)


def tdiv(a: dict, divisor: dict, lead: int, nvars: int):
    """Exact quotient terms of ``a`` by ``divisor``, or None when it does
    not divide.

    The divisor has plain integer coefficients, and its leading key
    ``lead`` has coefficient 1 (the quadratic x).  This is
    reduction by a single divisor under the graded key order: remainder
    zero is an exact divisibility test for a principal ideal, and the first
    remainder term whose key ``lead`` does not divide proves a nonzero
    remainder.  The remainder's keys wait on a heap (Monagan & Pearce,
    CASC 2007).
    """
    # over the common denominator every coefficient is a Gaussian
    # integer (p, q); the divisor's are integers, so each step is integer
    # addition and only the quotient terms are normalized
    den = math.lcm(*(c.d for c in a.values()))
    r = {k: (c.p * (den // c.d), c.q * (den // c.d)) for k, c in a.items()}
    rest = [(k, c.p) for k, c in divisor.items() if k != lead]
    norm = GaussianRational._norm
    # the keys of r are also on a heap, negated, so the largest comes
    # off first; a step adds only keys t + km below the key t + lead it
    # removes, so each key enters the heap once, and one that cancels
    # stays in r as (0, 0) until it comes off
    heap = [-k for k in r]
    heapq.heapify(heap)
    q = {}
    while heap:
        kl = -heapq.heappop(heap)
        p, pi = r.pop(kl)
        if not (p or pi):
            continue
        if not divides(lead, kl, nvars):
            return None
        t = kl - lead
        q[t] = norm(p, pi, den)
        for km, s in rest:
            k = t + km
            prev = r.get(k)
            if prev is None:
                r[k] = (-s * p, -s * pi)
                heapq.heappush(heap, -k)
            else:
                r[k] = (prev[0] - s * p, prev[1] - s * pi)
    return q


def block_degrees(key: int, nvars: int, width: int) -> tuple:
    """The degree in each run of ``width`` slots: a run times
    1 + 2^SLOT + ... + 2^(SLOT*(width-1)) holds its prefix sums, all below
    the degree cap, so that product's top slot is the run's degree."""
    ones = (1 << (SLOT * width)) // MASK
    mask = (1 << (SLOT * width)) - 1
    top = SLOT * (width - 1)
    return tuple(((((key >> (SLOT * b)) & mask) * ones) >> top) & MASK
                 for b in range(0, nvars, width))


def _merge(out: dict, pairs) -> dict:
    """Add (key, nonzero coefficient) pairs into ``out`` and return it:
    coefficients of a repeated key are summed and a sum of zero drops the
    key.  The one merge loop behind ``tadd`` and ``tcollect``."""
    get = out.get
    for k, c in pairs:
        prev = get(k)
        if prev is None:
            out[k] = c
        else:
            s = prev + c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def tadd(a: dict, b: dict) -> dict:
    """Sum of two term dicts: the smaller merged into a copy of the larger."""
    if len(a) < len(b):
        a, b = b, a
    return _merge(dict(a), b.items())


def tcollect(pairs) -> dict:
    """Terms from (key, nonzero coefficient) pairs, merged into an empty
    dict.  This is the merge behind ``rekey``."""
    return _merge({}, pairs)


def tneg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def tsub(a: dict, b: dict) -> dict:
    return tadd(a, tneg(b))


def tscale(a: dict, c) -> dict:
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def tmac(acc: dict, a: dict, b: dict, nvars: int, c=1) -> dict:
    """Add c*a*b into ``acc``, a dict {key: (p, q, d)} of unnormalized
    integer triples (p + q*i)/d, and return ``acc``.

    ``c`` is an int or a real Fraction; it is folded into b's triples.  A
    product of two coefficients is plain int arithmetic, terms over equal
    denominators add directly and unequal ones meet at their lcm.  Sums of
    zero stay in ``acc``; ``tnorm`` drops them.
    """
    if not a or not b:
        return acc
    # graded keys: the largest key carries the top degree
    da = max(a) >> (SLOT * nvars)
    db = max(b) >> (SLOT * nvars)
    if da + db >= DEG_CAP:
        raise ValueError(f"product degree {da + db} exceeds packing capacity")
    if c == 1:
        bt = [(kb, cb.p, cb.q, cb.d) for kb, cb in b.items()]
    else:
        cn, cd = c.numerator, c.denominator
        bt = [(kb, cb.p * cn, cb.q * cn, cb.d * cd) for kb, cb in b.items()]
    get = acc.get
    gcd = math.gcd
    for ka, ca in a.items():
        pa, qa, den_a = ca.p, ca.q, ca.d
        for kb, pb, qb, den_b in bt:
            k = ka + kb
            p = pa * pb - qa * qb
            q = pa * qb + qa * pb
            d = den_a * den_b
            prev = get(k)
            if prev is None:
                acc[k] = (p, q, d)
            else:
                p0, q0, d0 = prev
                if d0 == d:
                    acc[k] = (p0 + p, q0 + q, d)
                else:
                    g = gcd(d0, d)
                    f0, f = d // g, d0 // g
                    acc[k] = (p0 * f0 + p * f, q0 * f0 + q * f, d0 * f0)
    return acc


def tnorm(acc: dict) -> dict:
    """Terms from a ``tmac`` accumulator: one normalization per surviving
    term, sums of zero dropped."""
    norm = GaussianRational._norm
    return {k: norm(p, q, d) for k, (p, q, d) in acc.items() if p or q}


def tmul(a: dict, b: dict, nvars: int) -> dict:
    """Product of two term dicts: ``tmac`` into an empty accumulator, then
    ``tnorm``."""
    return tnorm(tmac({}, a, b, nvars))


def tdiff(a: dict, var: int, nvars: int) -> dict:
    """Partial derivative with respect to variable slot ``var``."""
    drop = (1 << (SLOT * nvars)) + (1 << (SLOT * var))
    shift = SLOT * var
    out = {}
    for k, c in a.items():
        e = (k >> shift) & MASK
        if e:
            out[k - drop] = c * e
    return out


def teval(a: dict, values, nvars: int) -> GaussianRational:
    """Exact value of the polynomial at a point.

    Every coefficient and every entry of ``values`` (ints, Fractions or
    GaussianRationals) is an integer triple (p + q*i)/d.  One power table
    is used per slot whose value is not exactly 1, built once per point and
    top degree, so a null point's tables serve every certificate; each term
    then multiplies its numerator pair by table entries in plain int arithmetic,
    and the numerators are summed per denominator.  A single normalization
    over the lcm of those denominators closes the sum, so no gcd is taken
    and no scalar object is built per term.
    """
    if not a:
        return ZERO
    top = max(a) >> (SLOT * nvars)  # graded keys: bounds every exponent
    slots = _power_tables(tuple(values), top, nvars)
    sums = {}
    for k, c in a.items():
        p, q, d = c.p, c.q, c.d
        for shift, table in slots:
            tp, tq, td = table[(k >> shift) & MASK]
            if tq:
                p, q = p * tp - q * tq, p * tq + q * tp
            else:
                p *= tp
                q *= tp
            d *= td
        acc = sums.get(d)
        if acc is None:
            sums[d] = [p, q]
        else:
            acc[0] += p
            acc[1] += q
    den = math.lcm(*sums)
    num_p = num_q = 0
    for d, (p, q) in sums.items():
        f = den // d
        num_p += p * f
        num_q += q * f
    return GaussianRational._norm(num_p, num_q, den)


@lru_cache(maxsize=1024)
def _power_tables(values: tuple, top: int, nvars: int) -> tuple:
    """(bit shift, [v^0, ..., v^top] as triples) per slot whose v is not 1."""
    slots = []
    for i in range(nvars):
        v = GaussianRational.coerce(values[i])
        p, q, d = v.p, v.q, v.d
        if p == 1 and q == 0 and d == 1:
            continue
        table = [(1, 0, 1)]
        tp, tq, td = 1, 0, 1
        for _ in range(top):
            tp, tq, td = tp * p - tq * q, tp * q + tq * p, td * d
            table.append((tp, tq, td))
        slots.append((SLOT * i, table))
    return tuple(slots)
