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
"""

from __future__ import annotations

import math

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


def exponent(key: int, i: int) -> int:
    return (key >> (SLOT * i)) & MASK


def total_degree(key: int, nvars: int) -> int:
    return key >> (SLOT * nvars)


def tadd(a: dict, b: dict) -> dict:
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for k, c in b.items():
        prev = out.get(k)
        if prev is None:
            out[k] = c
        else:
            s = prev + c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def tneg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def tsub(a: dict, b: dict) -> dict:
    return tadd(a, tneg(b))


def tscale(a: dict, c) -> dict:
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def tmul(a: dict, b: dict, nvars: int) -> dict:
    if not a or not b:
        return {}
    da = max(k >> (SLOT * nvars) for k in a)
    db = max(k >> (SLOT * nvars) for k in b)
    if da + db >= DEG_CAP:
        raise ValueError(f"product degree {da + db} exceeds packing capacity")
    out = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            c = ca * cb
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


def tpow(a: dict, e: int, nvars: int) -> dict:
    if e < 0:
        raise ValueError("negative power of a polynomial")
    result = None
    base = a
    while True:
        if e & 1:
            result = base if result is None else tmul(result, base, nvars)
        e >>= 1
        if not e:
            break
        base = tmul(base, base, nvars)
    if result is None:
        raise AssertionError("tpow(a, 0) must be handled by the caller")
    return result


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
    is built per slot whose value is not exactly 1; each term then
    multiplies its numerator pair by table entries in plain int arithmetic,
    and the numerators are summed per denominator.  A single normalization
    over the lcm of those denominators closes the sum, so no gcd is taken
    and no scalar object is built per term.
    """
    if not a:
        return ZERO
    top = max(a) >> (SLOT * nvars)  # graded keys: bounds every exponent
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
