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

Products work on a view of the terms (``tview``): their lcm denominator
den, top degree and Gaussian-integer pairs {key: (p, q)}, (p + q*i)/den.
An accumulator is such pairs over one denominator fixed before any
product: ``tmacs`` sums c*a*b into one accumulator per group over the lcm
of every item's denominator, so the pair loop (``tmac``) takes no
denominator product, equality test or gcd, and ``tnorm`` normalizes each
surviving term once; ``tmul`` is the one-group case.  Division by x is one
heap loop on the same pairs: ``tdiv`` divides once, behind the certificate
of ``Poly.divided_by_x``; ``tstrip`` divides accumulators while x divides.

This is the only module that reads or builds keys, and with ``scalar``
the only one that reads the triples: ``poly``, ``chart``, ``equiv`` (the
symbol of S, a polynomial in beta = x alpha at each order) and the
formatters go through ``pack``, ``unpack``, ``total_degree`` and
``var_keys``.  Every change of variables elsewhere (conjugation, the
inhomogeneous chart, the embeddings of the symbol's functional equation)
is one ``rekey`` onto the keys of ``var_keys``.
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


def tdiv(a: tuple, divisor: dict, lead: int, nvars: int):
    """Exact quotient terms of the view ``a`` by ``divisor``, or None when
    it does not divide.  No certificate runs here: ``Poly.divided_by_x``
    puts one in front, where most numerators are prime to x."""
    q = _hdiv(dict(a[2]), divisor, lead, nvars)
    return None if q is None else tnorm(q, a[0])


def tstrip(groups: dict, divisor: dict, lead: int, nvars: int):
    """(k, rest) with sum_e x^e * groups[e] = x^k * sum_e x^e * rest[e],
    x the divisor, groups[e] accumulators over one denominator and rest[0]
    prime to x; a sum of zero is (0, {}).  Only the lowest group is
    divided, and group e joins it when k reaches e, so none is lifted only
    to be divided back.  ``groups`` is consumed, the groups above k come
    back untouched, nothing is normalized, and no certificate runs."""
    k, r = 0, {}
    while True:
        for t, (p, q) in groups.pop(k, {}).items():
            p0, q0 = r.get(t, (0, 0))
            r[t] = (p0 + p, q0 + q)
        if not (r or groups):
            return 0, {}
        if (quo := _hdiv(dict(r), divisor, lead, nvars)) is None:
            break
        r, k = quo, k + 1
    return k, {e - k: acc for e, acc in groups.items()} | {0: r}


def _hdiv(r: dict, divisor: dict, lead: int, nvars: int):
    """The heap loop of ``tdiv`` and ``tstrip``: r, Gaussian-integer pairs
    over one denominator, is consumed into quotient pairs, or None.  This
    is reduction by one divisor with integer coefficients and lead
    coefficient 1 (the quadratic x) under the graded key order: remainder
    zero is an exact test for a principal ideal, and the first remainder
    key that ``lead`` does not divide proves a nonzero remainder.  r's
    keys are on a heap (Monagan & Pearce, CASC 2007), negated, so the
    largest comes off first;
    a step adds only keys t + km below the key t + lead it removes, so
    each key enters the heap once, and one that cancels stays in r as
    (0, 0) until it comes off."""
    rest = [(k, c.p) for k, c in divisor.items() if k != lead]
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
        q[t] = (p, pi)
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


def tview(terms: dict, nvars: int) -> tuple:
    """(den, top, pairs): the terms as Gaussian-integer pairs {key: (p, q)}
    over den, the lcm of their denominators, and their top degree (0 if none)."""
    den = math.lcm(*[c.d for c in terms.values()])
    return den, max(terms, default=0) >> (SLOT * nvars), {
        k: (c.p * (f := den // c.d), c.q * f) for k, c in terms.items()}


def tmac(acc: dict, a: tuple, b: tuple, c: int = 1) -> dict:
    """Add c*a*b into the accumulator ``acc`` and return it: a and b are
    views, and c, an int, carries the ratio of acc's denominator to
    den_a * den_b.  Sums of zero stay in acc; ``tnorm`` drops them."""
    if a[1] + b[1] >= DEG_CAP:
        raise ValueError(f"product degree {a[1] + b[1]} exceeds packing capacity")
    a, b = (a[2], b[2]) if len(a[2]) <= len(b[2]) else (b[2], a[2])
    get = acc.get
    for ka, (pa, qa) in a.items():
        pa, qa = pa * c, qa * c
        for kb, (pb, qb) in b.items():
            k = ka + kb
            p0, q0 = get(k, (0, 0))
            acc[k] = (p0 + pa * pb - qa * qb, q0 + pa * qb + qa * pb)
    return acc


def tmacs(items) -> tuple:
    """(den, groups): sum c*a*b over (group, c, a, b) items (a, b views, c
    an int or a real Fraction) into one accumulator per group, all over den,
    the lcm of every item's c.denominator * den_a * den_b, fixed up front."""
    items = [(g, c, a, b, c.denominator * a[0] * b[0]) for g, c, a, b in items]
    den = math.lcm(*(t[4] for t in items))
    groups = {}
    for g, c, a, b, d in items:
        tmac(groups.setdefault(g, {}), a, b, c.numerator * (den // d))
    return den, groups


def tnorm(acc: dict, den: int) -> dict:
    """Terms from an accumulator over ``den``: one normalization per
    surviving term, sums of zero dropped."""
    norm = GaussianRational._norm
    return {k: norm(p, q, den) for k, (p, q) in acc.items() if p or q}


def tmul(a: dict, b: dict, nvars: int) -> dict:
    """Product of two term dicts: ``tmacs`` on one group."""
    den, groups = tmacs([(0, 1, tview(a, nvars), tview(b, nvars))])
    return tnorm(groups[0], den)


def tquot(a: tuple, var: int, partner: int, c: int, x: dict, nvars: int) -> dict:
    """x * d_var P + c * v * P in one pass over P, the view ``a``, as pairs
    over P's denominator (x with integer terms, v the variable in slot
    ``partner``): with c = -m * g_kk, the numerator of d(P / x^m)."""
    if a[1] + 1 >= DEG_CAP:
        raise ValueError(f"product degree {a[1] + 1} exceeds packing capacity")
    shift, v = SLOT * var, var_keys(nvars)[partner]
    xs = [(kx - var_keys(nvars)[var], cx.p) for kx, cx in x.items()]
    out = {}
    get = out.get
    for k, (p, q) in a[2].items():
        if e := (k >> shift) & MASK:
            for kx, s in xs:
                p0, q0 = get(k + kx, (0, 0))
                out[k + kx] = (p0 + e * s * p, q0 + e * s * q)
        p0, q0 = get(k + v, (0, 0))
        out[k + v] = (p0 + c * p, q0 + c * q)
    return out


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
