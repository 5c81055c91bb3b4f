"""Seeded workload generator.

Every input of every workload is made here from the benchmark seed, so a
change to `wickred.sampling` cannot change what the benchmark runs.  CLI
items draw their arguments from finite sets (verify seeds, mul operand
pairs) whose outputs have recorded reference digests; library operands
are built through public constructors only.

String seeds make `random.Random` hash with SHA-512, so the streams do not
depend on PYTHONHASHSEED.
"""

from __future__ import annotations

import json
from fractions import Fraction
from random import Random

SUITES = ("lemma21", "equiv", "reduce", "moreno", "su1n")
VERIFY_SEEDS = tuple(range(6))  # one cycle is about 40 s on a 2 GHz Xeon core
MUL_MUS = ("-1/2", "-1", "-2")
MUL_POOL = 60  # a multiple of len(MUL_MUS)
MULS_PER_LEVEL = 3
MORENO_RMAX = 18
MORENO_REPEATS = 2
TABLE_RMAX = 40

# nonzero Gaussian rationals as (re, im); both the library operands and the
# CLI expressions draw from this pool
COEFFS = ((1, 0), (-1, 0), (Fraction(1, 2), 0), (Fraction(-1, 2), 0), (0, 1), (0, -1),
          (1, 1), (Fraction(1, 3), -1))


def _composition(rng: Random, total: int, parts: int) -> list:
    cuts = sorted(rng.randrange(total + 1) for _ in range(parts - 1))
    out, prev = [], 0
    for c in cuts + [total]:
        out.append(c - prev)
        prev = c
    return out


def _monomials(rng: Random, nv: int, d: int, terms: int) -> dict:
    """`terms` distinct exponent vectors of bidegree (d, d) over nv
    coordinates, each with a coefficient from COEFFS."""
    out = {}
    while len(out) < terms:
        out[tuple(_composition(rng, d, nv) + _composition(rng, d, nv))] = rng.choice(COEFFS)
    return out


# ----------------------------------------------------------------------
# CLI item streams


def verify_items(seed: int):
    """Endless stream of passes; a pass runs each suite once, all at one
    verify seed.  The cost of a suite varies up to 15-fold between verify
    seeds (equiv: 0.4 to 6.5 s), far more than a one-minute run can average
    out, so every cycle of passes visits the same VERIFY_SEEDS and the
    benchmark seed only orders them."""
    rng = Random(f"verify-cli:{seed}")
    while True:
        for v in rng.sample(VERIFY_SEEDS, len(VERIFY_SEEDS)):
            yield [["verify", s, "--n", "1", "--order", "6", "--seed", str(v)] for s in SUITES]


def _coeff_text(c) -> str:
    re_, im = (Fraction(v) for v in c)
    if im == 0:
        return f"({re_})"
    if re_ == 0:
        return f"({im}*i)"
    return f"({re_}+({im})*i)"


def _expr_text(rng: Random) -> str:
    d = rng.choice((1, 2))
    names = ("z0", "z1", "zb0", "zb1")
    parts = []
    for exps, c in sorted(_monomials(rng, 2, d, rng.choice((2, 3))).items()):
        factors = [_coeff_text(c)]
        factors += [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        parts.append("*".join(factors))
    return f"({' + '.join(parts)})/x" + (f"^{d}" if d > 1 else "")


def mul_args(index: int) -> list:
    """Pool entry `index`: a reduced product of two parsed CP^1 expressions
    at level MUL_MUS[index % len(MUL_MUS)]."""
    rng = Random(f"mul:{index}")
    mu = MUL_MUS[index % len(MUL_MUS)]
    return ["mul", "--n", "1", f"--mu={mu}", "--order", "3",
            "--lhs", _expr_text(rng), "--rhs", _expr_text(rng)]


SPHERE_FIXED = (["moreno", "--rmax", str(MORENO_RMAX)],
                ["moreno", "--rmax", str(MORENO_RMAX), "--format", "latex"],
                ["table", "a-coeff", "--rmax", str(TABLE_RMAX)],
                ["table", "k-coeff", "--rmax", str(TABLE_RMAX)])


def sphere_items(seed: int):
    """Endless stream of passes: the sphere recursion MORENO_REPEATS times
    in each of two output formats (equal work), both coefficient tables,
    and MULS_PER_LEVEL pool mul calls per level in MUL_MUS.

    The item times form three clusters: muls (~0.2 s), tables (~0.3 s) and
    the recursion (~0.8 s).  The shares are set so that item_p50_s falls
    well inside the mul cluster (9 of 15 items) and item_tail_s, ten items
    from the top, well inside the recursion cluster (4 of 15) at any pass
    count a run reaches; an estimate on the edge between two clusters
    would jump with the host's noise.  A mul costs about a third more at
    mu = -2 than at the other levels, so every pass takes the same number
    of each."""
    rng = Random(f"sphere-tables:{seed}")
    moreno, tables = list(SPHERE_FIXED[:2]), list(SPHERE_FIXED[2:])
    k = len(MUL_MUS)
    while True:
        yield moreno * MORENO_REPEATS + tables + [
            mul_args(k * rng.randrange(MUL_POOL // k) + j)
            for _ in range(MULS_PER_LEVEL) for j in range(k)]


def reference_items():
    """Every CLI argument list either stream can produce."""
    items = [["verify", s, "--n", "1", "--order", "6", "--seed", str(v)]
             for s in SUITES for v in VERIFY_SEEDS]
    items += SPHERE_FIXED
    items += [mul_args(i) for i in range(MUL_POOL)]
    return items


def reference_key(argv: list) -> str:
    """The key of a CLI item's digest in reference.json."""
    return json.dumps(argv)


# ----------------------------------------------------------------------
# library operands for reduced-cp2 (needs wickred importable)


UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _homogeneous(space, base: Random, perm: tuple, unit: tuple, d: int = 1, terms: int = 2):
    """P / x^d for a P drawn from `base`, its coordinates permuted by
    `perm` and every coefficient multiplied by the unit `unit`."""
    from wickred import GaussianRational, LaurentElem, Poly

    u = GaussianRational(*unit)
    mons = _monomials(base, space.nv, d, terms)
    nv = space.nv
    poly = Poly.from_exponent_map(space, {
        tuple(e[perm[k]] for k in range(nv)) + tuple(e[nv + perm[k]] for k in range(nv)):
            GaussianRational(*c) * u
        for e, c in sorted(mons.items())})
    return LaurentElem.from_poly(poly, mz=d)


def reduced_items(seed: int, pass_index: int) -> list:
    """One pass of reduced-cp2 identities on CP^2.

    Per level mu in {-1/2, -2} (K = 5): mu_star associativity on a triple
    and the first-order commutator against reduced_poisson on its first
    two entries.  Then the two-point product formula for r = 1, 2, 3 on
    one pair (K = 4).  Operands are degree-(0,0) elements P / x with two
    monomials each, which keeps every item under a few seconds.

    The operands' supports and coefficients come from one fixed stream;
    the seed and pass pick only a permutation of the three homogeneous
    coordinates (a U(3) symmetry of CP^2) and a unit in {1, -1, i, -i} per
    operand.  Neither changes the size of any number the identities
    compute, so every pass of every seed asks for the same work, and the
    spread of a run's figures is the host's, not the inputs'.
    """
    from wickred import StarContext, VarSpace

    base = Random("reduced-cp2:operands")
    rng = Random(f"reduced-cp2:{seed}:{pass_index}")
    space = VarSpace.cpn(2)
    perm = tuple(rng.sample(range(space.nv), space.nv))

    def operand():
        return _homogeneous(space, base, perm, rng.choice(UNITS))

    items = []
    for mu in (Fraction(-1, 2), Fraction(-2)):
        ctx = StarContext(space=space, K=5, mu=mu)
        f, g, h = operand(), operand(), operand()
        items.append((f"assoc-mu{mu}", "assoc", ctx, (f, g, h)))
        items.append((f"comm-mu{mu}", "comm", ctx, (f, g)))
    ctx = StarContext(space=space, K=4)
    f, g = operand(), operand()
    for r in (1, 2, 3):
        items.append((f"formula-r{r}", "formula", ctx, (r, f, g)))
    return items
