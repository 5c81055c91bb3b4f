"""Packed-exponent sparse term kernel.

A monomial over ``nvars`` variables is one Python int:

    key = totdeg << (8*nvars)  |  e_{nvars-1} << 8*(nvars-1)  |  ...  |  e_0

Each exponent gets 8 bits and the total degree sits on top, so monomial
multiplication is a single integer addition and plain int comparison is a
graded order (ties broken lexicographically, the highest slot being most
significant).

Exponents must stay below 128 so that one addition can never carry across
slots; the degree field is checked once per product, which bounds every
slot.  Degrees that large never occur in this package.

A polynomial is a view (den, top, pairs): Gaussian-integer pairs
{key: (p, q)} standing for (p + q*i)/den, and the top degree (0 if none).
Every view a function here returns is canonical (``tcanon``): den >= 1, no
zero pair, and gcd(den, every p, every q) = 1.  That form is unique, so
two polynomials are equal exactly when their views are.  ``tview`` reads a
dict {key: GaussianRational} into a view and ``tterms`` writes one back;
those are the edge, for parsers, formatters, the chart's operands and the
tests, and ``tmul`` is the product of two such dicts.

An accumulator is pairs over one denominator fixed before any product:
``tmacs`` sums c*a*b into one accumulator per group over the lcm of every
item's denominator, so the pair loop (``tmac``) takes no denominator
product, equality test or gcd, and ``tcanon`` closes each sum with one gcd
over the whole sum instead of one normalization per term.  Division by x
is one heap loop on the same pairs: ``tdiv`` divides once, behind the
certificate of ``Poly.divided_by_x``; ``tstrip`` divides accumulators
while x divides.  Evaluation (``teval``) works on the pairs and the
integer triples (p + q*i)/d of the point, keeps one numerator sum per
denominator and normalizes once at the end, which is what makes the
null-point certificate of ``Poly.divided_by_x`` cheap.

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
from itertools import chain

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


def tcanon(acc: dict, den: int, nvars: int) -> tuple:
    """The canonical view of an accumulator over ``den`` >= 1: zero pairs
    dropped, then den and every numerator divided by g, their one gcd,
    when g > 1.

    The form is unique.  Read each term reduced, (p + q*i)/den =
    (p' + q'*i)/d with gcd(p', q', d) = 1; then den is L, the lcm of the
    d.  L divides den, and den = m*L with m > 1 would make m divide den
    and every numerator.  And for a prime l dividing L, the term whose d
    carries L's full power of l has numerators (p', q') * (L/d), with L/d
    prime to l, and l divides not both of p', q'; so gcd(L, every
    numerator) = 1.  Two canonical views of one polynomial therefore have
    one denominator, and so the same pairs.  This is also why ``tview``
    needs no gcd."""
    pairs = {k: pq for k, pq in acc.items() if pq != (0, 0)}
    if den > 1 and (g := math.gcd(den, *chain.from_iterable(pairs.values()))) > 1:
        den //= g
        pairs = {k: (p // g, q // g) for k, (p, q) in pairs.items()}
    return den, max(pairs, default=0) >> (SLOT * nvars), pairs


def tview(terms: dict, nvars: int) -> tuple:
    """The view of a dict {key: nonzero GaussianRational}: pairs over den,
    the lcm of the denominators.  Each coefficient is reduced, so the view
    is canonical (``tcanon``) as it stands."""
    den = math.lcm(*[c.d for c in terms.values()])
    return den, max(terms, default=0) >> (SLOT * nvars), {
        k: (c.p * (f := den // c.d), c.q * f) for k, c in terms.items()}


def tterms(a: tuple) -> dict:
    """The dict {key: GaussianRational} of the view ``a``: the edge, one
    normalization per term."""
    den, norm = a[0], GaussianRational._norm
    return {k: norm(p, q, den) for k, (p, q) in a[2].items()}


def rekey(a: tuple, images, nvars: int) -> tuple:
    """Substitute variable i by the monomial whose key is ``images[i]``,
    where 0 means "set to 1": a key's image is sum_i e_i * images[i], over
    the ``len(images)`` slots of the source keys, and the result is a view
    over ``nvars`` slots.

    Images of degree <= 1 (0 or an entry of ``var_keys``) never raise the
    total degree, so the result stays packable.  Terms that land on the
    same key are summed.
    """
    slots = [(SLOT * i, img) for i, img in enumerate(images) if img]
    acc = {}
    get = acc.get
    for k, (p, q) in a[2].items():
        t = 0
        for s, img in slots:
            t += ((k >> s) & MASK) * img
        prev = get(t)
        acc[t] = (p, q) if prev is None else (prev[0] + p, prev[1] + q)
    return tcanon(acc, a[0], nvars)


@lru_cache(maxsize=None)
def _guard(nvars: int) -> int:
    return sum(1 << (SLOT * i + SLOT - 1) for i in range(nvars + 1))


def divides(m: int, k: int, nvars: int) -> bool:
    """Whether the monomial m divides the monomial k: every slot keeps its
    top bit clear, so ``k - m`` borrows into a slot's top bit (the guard)
    exactly when some exponent of m exceeds the matching one of k."""
    return not (k - m) & _guard(nvars)


def tdiv(a: tuple, divisor: dict, lead: int, nvars: int):
    """The view of the exact quotient of the view ``a`` by ``divisor``, or
    None when it does not divide.  No certificate runs here:
    ``Poly.divided_by_x`` puts one in front, where most numerators are
    prime to x."""
    q = _hdiv(dict(a[2]), divisor, lead, nvars)
    return None if q is None else tcanon(q, a[0], nvars)
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
    pop, push, get = heapq.heappop, heapq.heappush, r.get
    q = {}
    while heap:
        kl = -pop(heap)
        p, pi = r.pop(kl)
        if not (p or pi):
            continue
        if not divides(lead, kl, nvars):
            return None
        t = kl - lead
        q[t] = (p, pi)
        for km, s in rest:
            k = t + km
            prev = get(k)
            if prev is None:
                r[k] = (-s * p, -s * pi)
                push(heap, -k)
            else:
                r[k] = (prev[0] - s * p, prev[1] - s * pi)
    return q


def block_degrees(key: int, nvars: int, width: int) -> tuple:
    """The degree in each run of ``width`` slots: a run times
    1 + 2^SLOT + ... + 2^(SLOT*(width-1)) holds its prefix sums, all below
    the degree cap, so that product's top slot is the run's degree."""
    ones, mask, top, shifts = _runs(nvars, width)
    return tuple([((((key >> s) & mask) * ones) >> top) & MASK for s in shifts])


@lru_cache(maxsize=None)
def _runs(nvars: int, width: int) -> tuple:
    """The constants of ``block_degrees``: the ones, the mask and the top
    slot of a run, and the shift of each run."""
    return ((1 << (SLOT * width)) // MASK, (1 << (SLOT * width)) - 1, SLOT * (width - 1),
            tuple(range(0, SLOT * nvars, SLOT * width)))


def tadd(a: tuple, b: tuple, nvars: int) -> tuple:
    """The view of a + b: the pairs of each brought to the lcm of the two
    denominators and summed, one ``tcanon`` at the end."""
    den = math.lcm(a[0], b[0])
    acc = _times(a, den // a[0])
    get, f = acc.get, den // b[0]
    for k, (p, q) in b[2].items():
        prev = get(k)
        acc[k] = (p * f, q * f) if prev is None else (prev[0] + p * f, prev[1] + q * f)
    return tcanon(acc, den, nvars)


def _times(a: tuple, f: int) -> dict:
    """The pairs of the view ``a`` times the int f, as a new accumulator."""
    if f == 1:
        return dict(a[2])
    return {k: (p * f, q * f) for k, (p, q) in a[2].items()}


def tscale(a: tuple, c: GaussianRational, nvars: int) -> tuple:
    """The view of c * a."""
    if not c:
        return 1, 0, {}
    cp, cq = c.p, c.q
    if cq:
        acc = {k: (p * cp - q * cq, p * cq + q * cp) for k, (p, q) in a[2].items()}
    else:
        acc = _times(a, cp)
    return tcanon(acc, a[0] * c.d, nvars)


def tweigh(a: tuple, weights: dict, nvars: int) -> tuple:
    """The view of sum w_k * a_k over the keys k of ``weights``, each w_k a
    nonzero int, Fraction or GaussianRational and a_k the term of the view
    ``a`` at k: the weights' denominators meet at their lcm, and no scalar
    is built for an int weight."""
    trip = {}
    for k, w in weights.items():
        if isinstance(w, int):
            trip[k] = (w, 0, 1)
        else:
            w = GaussianRational.coerce(w)
            trip[k] = (w.p, w.q, w.d)
    lcm = math.lcm(*[t[2] for t in trip.values()])
    pairs, acc = a[2], {}
    for k, (wp, wq, wd) in trip.items():
        p, q = pairs[k]
        f = lcm // wd
        acc[k] = ((p * wp - q * wq) * f, (p * wq + q * wp) * f)
    return tcanon(acc, a[0] * lcm, nvars)


def tmac(acc: dict, a: tuple, b: tuple, c: int = 1) -> dict:
    """Add c*a*b into the accumulator ``acc`` and return it: a and b are
    views, and c, an int, carries the ratio of acc's denominator to
    den_a * den_b.  Sums of zero stay in acc; ``tcanon`` drops them."""
    if a[1] + b[1] >= DEG_CAP:
        raise ValueError(f"product degree {a[1] + b[1]} exceeds packing capacity")
    a, b = (a[2], b[2]) if len(a[2]) <= len(b[2]) else (b[2], a[2])
    get = acc.get
    for ka, (pa, qa) in a.items():
        pa, qa = pa * c, qa * c
        if qa:
            for kb, (pb, qb) in b.items():
                k = ka + kb
                p0, q0 = get(k, (0, 0))
                acc[k] = (p0 + pa * pb - qa * qb, q0 + pa * qb + qa * pb)
        else:  # a real term, most of them: half the products
            for kb, (pb, qb) in b.items():
                k = ka + kb
                p0, q0 = get(k, (0, 0))
                acc[k] = (p0 + pa * pb, q0 + pa * qb)
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


def tprod(a: tuple, b: tuple, nvars: int) -> tuple:
    """The view of a * b: ``tmac`` into an empty accumulator over
    den_a * den_b."""
    return tcanon(tmac({}, a, b), a[0] * b[0], nvars)


def tmul(a: dict, b: dict, nvars: int) -> dict:
    """Product of two dicts {key: GaussianRational}: ``tprod`` on their
    views, written back."""
    return tterms(tprod(tview(a, nvars), tview(b, nvars), nvars))


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


def tdiff(a: tuple, var: int, nvars: int) -> tuple:
    """The view of the partial derivative of the view ``a`` with respect
    to variable slot ``var``."""
    drop = (1 << (SLOT * nvars)) + (1 << (SLOT * var))
    shift = SLOT * var
    out = {}
    for k, (p, q) in a[2].items():
        if e := (k >> shift) & MASK:
            out[k - drop] = (p * e, q * e)
    return tcanon(out, a[0], nvars)


def teval(a: tuple, values, nvars: int) -> GaussianRational:
    """Exact value of the view ``a`` at a point.

    Every entry of ``values`` (ints, Fractions or GaussianRationals) is an
    integer triple (p + q*i)/d.  One power table is used per slot whose
    value is not exactly 1, built once per point and top degree, so a null
    point's tables serve every certificate; each term then multiplies its
    pair by table entries in plain int arithmetic, and the numerators are
    summed per denominator.  A single normalization over the lcm of those
    denominators closes a nonzero sum, so no gcd is taken and no scalar
    object is built per term.
    """
    den, top, pairs = a
    if not pairs:
        return ZERO
    slots = _power_tables(tuple(values), top, nvars)  # graded keys: top bounds every exponent
    sums = {}
    for k, (p, q) in pairs.items():
        d = den
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
    if not (num_p or num_q):  # a null point's certificate on a multiple of x
        return ZERO
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
