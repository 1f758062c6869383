"""Equivariant index series for circle actions with isolated fixed points.

Per fixed point the series is a product of three factors on the
u = q^(1/24) lattice, divided by the tangent lead below:

* tangent factors: over the rotation weights alpha_j, the quotient
  theta'(0,tau) / (2 pi i theta(alpha_j t, tau)), implemented as the
  identity  phi(q)^2 / ((w^a - w^-a) prod_m (1 - w^(2a) q^m)(1 - w^(-2a) q^m));
  the 2 pi i cancels symbolically.  No tangent block is built: the line
  block is divided in place by each 1 - w^(+-2a) q^m (_divide_tangent), and
  only the lead D_p = prod_j (w^a - w^-a) needs the fraction field.  Once
  per process before first use, that division and the sum form of theta
  are checked exactly against the triple product: i theta divided by the
  weight 1's factors is u^3 (w - w^-1) phi, as integer blocks through q^6.
* line-bundle block: for the even tower ("I") the product of the ratios
  theta_i(c t)/theta_i(0) over i = 1, 2, 3; for the odd tower ("J") the
  single quotient i * theta(c t) / (theta_1 theta_2 theta_3)(0).  The i
  (theta_product takes i*theta) cancels theta's -i, so that every
  coefficient is a real index; the order-zero one is the Lefschetz number
  of the (1 - Lbar)-twisted operator.
* lattice block: the lattice theta function at z_l = beta_l t
  (`e8._lattice_series`), half the sum of the four 8-fold theta products.

By Jacobi's identity (theta_1 theta_2 theta_3)(0) = 2 q^(1/8) phi^3, the
sum's 2, the phi^(2k) and the theta_i(0) make the shared factor
phi^(2k-3) q^(-1/8).  Every block is an `intseries` block over Z[w^+-1]
with plain ints.  The leads enter only through D = lcm_p D_p, which
ratfunc.cyclotomic_lcm gives factored into cyclotomic polynomials, with the
integer cofactors D / D_p as u^0 blocks, so the result is real by
construction.  index_series groups the points by the parities of their
blocks (_summed); each group whose summed cofactor is not zero adds its
point block (line numerator over the tangent q-product) times that cofactor,
each beta's sum is multiplied by its lattice block, and the total once by
the shared factor.  point_contribution groups nothing.  Each q^n
coefficient becomes one RationalFunction over D (in point_contribution,
over D_p), reduced by exact integer division by the cyclotomic factors of
D (ratfunc.over_cyclotomic): no gcd is run.  The Lefschetz numbers that
check q^0 and q^1 independently are numerators over the same D
(bundles.lefschetz_sums), so verify_qexpansion compares integer maps and
reduces only to word a failure.

Every block expands through q^order and no further: validity propagation
then leaves the product valid through exactly u^(24 order).  That only
whole powers of q survive the sum over the points is asserted.

Each block depends only on its key, so it is built once per process and
shared, never mutated, by every fixture and job.  The point block is keyed
by (alpha, c, flavour, order), which _summed passes as the group key, in an
lru_cache of 32; alpha (10, 9), c 0, I at order 30 holds 7.6k terms
(~0.4 MiB), and the size grows with sum |alpha_j| times the order; it is
the fresh block of theta_product, divided in place.  The shared
factor is keyed by (k, order), in a cache of 16; it holds 31 terms at
order 30.  The lattice block is keyed by the W(D8) orbit of beta and the
order, in e8's cache of 32.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

from . import intseries
from .bundles import BundleExpr, lefschetz_sums, qexpansion_twists
from .e8 import _lattice_series, lattice_key
from .fixtures import FixedPoint, FixedPointFixture, IndexFlavor
from .ratfunc import RationalFunction, cyclotomic_lcm, over_cyclotomic
from .record import FrozenRecord, Record
from .report import ReportItem, VerificationReport
from .series import TruncatedSeries, U_PER_Q
from .theta import ThetaKind, theta_eval, theta_prime_zero, theta_product

# largest order index_series expands to: cp2 (k = 2, three points, two point
# groups) takes about 0.035 s (I) at order 30 on a 2-vCPU host, over half of
# it the point blocks' division, and under 1 ms (J), whose mirrored points cancel
MAX_INDEX_ORDER = 30


class AnomalyResult(FrozenRecord):
    """Per-point values of sum(beta^2) + (3 or 1) c^2 - sum(alpha^2)."""

    __slots__ = ("per_point", "consistent", "n")

    def __init__(self, per_point: tuple[int, ...], consistent: bool, n: int | None):
        object.__setattr__(self, "per_point", per_point)
        object.__setattr__(self, "consistent", consistent)
        object.__setattr__(self, "n", n)


def anomaly(fixture: FixedPointFixture, flavor: IndexFlavor) -> AnomalyResult:
    coeff = 3 if flavor is IndexFlavor.I_SERIES else 1
    values = tuple(
        sum(b * b for b in p.beta) + coeff * p.c * p.c - sum(a * a for a in p.alpha)
        for p in fixture.points
    )
    consistent = len(set(values)) == 1
    return AnomalyResult(values, consistent, values[0] if consistent else None)


class IndexSeries(Record):
    __slots__ = ("flavor", "fixture", "series", "order")

    def __init__(
        self,
        flavor: IndexFlavor,
        fixture: FixedPointFixture,
        series: TruncatedSeries,  # rational-function coefficients, whole q-powers
        order: int,
    ):
        self.flavor = flavor
        self.fixture = fixture
        self.series = series
        self.order = order

    def q_coefficient(self, n: int) -> RationalFunction:
        return self.series.q_coefficient(n)


_EVEN_KINDS = (ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3)


def _divide_tangent(block: intseries.Block, alpha: tuple[int, ...]) -> intseries.Block:
    """A fresh block divided in place by prod_j prod_m (1 - w^(2a) q^m)(1 - w^(-2a) q^m),
    the tangent denominator without its lead, one ascending pass per factor."""
    coeffs, validity = block
    for a in alpha:
        for x in (2 * a, -2 * a):
            for e in range(U_PER_Q, validity + 1, U_PER_Q):
                intseries.times_inverse(coeffs, x, e, validity)
    return block


def _through(block: intseries.Block, order: int) -> intseries.Block:
    """The block cut at q^order, which its validity must reach."""
    target = U_PER_Q * order
    if block[1] < target:
        raise AssertionError(f"validity shortfall: {block[1]} < {target}")
    return {e: c for e, c in block[0].items() if e <= target}, target


def _over(block: intseries.Block, mult: dict[int, int], order: int) -> TruncatedSeries:
    """The block through q^order, each coefficient over prod_d Phi_d^mult[d]."""
    coeffs, target = _through(block, order)
    out = {e: over_cyclotomic(c, mult) for e, c in coeffs.items()}
    return TruncatedSeries(out, target, RationalFunction.zero())


@lru_cache(maxsize=32)
def _point_block(
    alpha: tuple[int, ...], c: int, flavor: IndexFlavor, order: int
) -> intseries.Block:
    """A point's line numerator divided by its tangent q-product; shared, never mutated."""
    kinds = _EVEN_KINDS if flavor is IndexFlavor.I_SERIES else (ThetaKind.THETA,)
    return _divide_tangent(theta_product([(kind, c) for kind in kinds], order), alpha)


@lru_cache(maxsize=16)
def _shared_block(k: int, order: int) -> intseries.Block:
    """2 phi^(2k) / (theta_1 theta_2 theta_3)(0) = phi^(2k-3) q^(-1/8), by Jacobi;
    shared, never mutated."""
    coeffs, validity = intseries.phi_block(2 * k - 3, order)
    return {e - 3: p for e, p in coeffs.items()}, validity - 3


@lru_cache(maxsize=1)
def _assert_quotient_identity() -> None:
    """One-shot exact check of _divide_tangent, the point blocks' division,
    over the sum form of theta: by the triple product, i theta divided by the
    weight 1's factors is u^3 (w - w^-1) phi, compared as integer blocks
    through q^6.  A pass is cached; a failure raises, so it is not."""
    order = 6
    lhs = _divide_tangent(theta_product([(ThetaKind.THETA, 1)], order), (1,))
    lead = ({3: {1: 1, -1: -1}}, U_PER_Q * order + 3)
    rhs = intseries.mul(lead, intseries.phi_block(1, order))
    if _through(lhs, order) != _through(rhs, order):
        raise AssertionError(
            f"tangent-block identity failed: i theta over the weight-1 tangent "
            f"factors is not u^3 (w - w^-1) phi through q^{order}"
        )


def _numerator(terms, k: int, flavor: IndexFlavor, order: int) -> intseries.Block:
    """Sum over the (alpha, c, beta, cofactor) terms of the cofactor
    times the point block and the lattice block of beta, times the shared
    factor once; the terms with one beta share one lattice block."""
    by_beta = {}
    for alpha, c, beta, cofactor in terms:
        own = _point_block(alpha, c, flavor, order)
        own = intseries.mul(own, ({0: cofactor}, own[1]))
        by_beta[beta] = intseries.add(own, by_beta.get(beta, ({}, own[1])))
    numer = None  # from the first term: ({}, 24 order) would cap its validity
    for beta, part in by_beta.items():
        part = intseries.mul(part, _lattice_series(beta, order))
        numer = intseries.add(numer, part) if numer else part
    return intseries.mul(numer, _shared_block(k, order)) if numer else ({}, U_PER_Q * order)


def _summed(fixture: FixedPointFixture, flavor: IndexFlavor, order: int):
    """D = lcm_p D_p as {d: m_d}, the cofactors D / D_p, and the numerators
    over D of the summed summands, cut at q^order; only whole q-powers survive.

    A point's blocks depend on it only through (sorted |alpha_j|, |c|,
    e8.lattice_key(beta)), up to a sign: the tangent factors are even in
    each alpha_j, the lattice block is the same on beta's W(D8) orbit (which
    holds -beta), the I line block is even in c and the J line block odd in
    c.  So each group of points with one such key adds its cofactors
    D / D_p, times 1 (I) or sign(c) (J), and one lattice multiply serves
    the group; a group whose sum is zero builds no block, and a J point
    with c = 0 adds nothing, as theta(0) = 0.
    """
    _assert_quotient_identity()
    mult, cofactors = cyclotomic_lcm([p.alpha for p in fixture.points])
    groups = {}
    for p, cofactor in zip(fixture.points, cofactors):
        sign = 1 if flavor is IndexFlavor.I_SERIES else (p.c > 0) - (p.c < 0)
        if sign:
            key = (tuple(sorted(map(abs, p.alpha))), abs(p.c), lattice_key(p.beta))
            intseries.add_poly(groups.setdefault(key, {}), cofactor, 0, sign)
    terms = [key + (summed,) for key, summed in groups.items() if summed]
    block = _through(_numerator(terms, fixture.k, flavor, order), order)
    if bad := [e for e in block[0] if e % U_PER_Q]:
        raise AssertionError(f"fractional q-power u^{min(bad)} survived point summation")
    return mult, cofactors, block


def point_contribution(
    point: FixedPoint, k: int, flavor: IndexFlavor, order: int
) -> TruncatedSeries:
    """Exact series of one fixed point's summand over its own lead, through q^order.

    Its point block is built from the point's own alpha and c, with no
    symmetry used: the per-point route that the grouping is tested against.
    Its lattice block comes through e8's W(D8) key, whose oracle is the
    dynamic program run at beta itself.
    """
    _assert_quotient_identity()
    mult, (cofactor,) = cyclotomic_lcm([point.alpha])
    terms = [(point.alpha, point.c, point.beta, cofactor)]
    return _over(_numerator(terms, k, flavor, order), mult, order)


def index_series(fixture: FixedPointFixture, flavor: IndexFlavor, order: int) -> IndexSeries:
    """Sum of the fixed-point contributions, with structural assertions.

    The order must lie in 0..MAX_INDEX_ORDER; anything else raises
    ValueError before any block is expanded.
    """
    if not 0 <= order <= MAX_INDEX_ORDER:
        raise ValueError(f"index order must lie in 0..{MAX_INDEX_ORDER}, got {order}")
    mult, _, block = _summed(fixture, flavor, order)
    return IndexSeries(flavor, fixture, _over(block, mult, order), order)


def lefschetz_number(
    point: FixedPoint, k: int, expr: BundleExpr, flavor: IndexFlavor
) -> RationalFunction:
    """Fixed-point contribution of the twisted operator, as a rational function.

    The twist is (1 + Lbar) x expr for the even tower and (1 - Lbar) x expr
    for the odd one; with the half-weight of the spinor bundle the numerator
    reads (w^c +/- w^-c) * ch(expr), over the tangent factor
    prod_j (w^(alpha_j) - w^(-alpha_j)).  The convention matches the
    order-zero coefficient of the index series on the same point.
    """
    fixture = FixedPointFixture(k, (point,))  # checks that alpha has k weights
    mult, cofactors = cyclotomic_lcm([point.alpha])
    (num,) = lefschetz_sums(fixture.points, cofactors, [expr], flavor is IndexFlavor.I_SERIES)
    return over_cyclotomic(num, mult)


def verify_qexpansion(fixture: FixedPointFixture, flavor: IndexFlavor) -> VerificationReport:
    """Check the q^0 and q^1 coefficients against direct Lefschetz numbers.

    The two routes are independent: the series comes from theta quotients,
    the Lefschetz numbers from equivariant characters of the named twists.
    Also checks the square of the rank-reduced line bundle against its
    expansion in the atoms, all compared as integer numerators over one D.
    """
    mult, cofactors, block = _summed(fixture, flavor, 1)
    even = flavor is IndexFlavor.I_SERIES
    lefschetz = lefschetz_sums(fixture.points, cofactors, qexpansion_twists(even, fixture.k), even)
    items = []
    for n, twist in enumerate(("bare", "order-one")):
        got, lef = block[0].get(U_PER_Q * n, {}), lefschetz[n]
        text = (
            None if got == lef else f"{over_cyclotomic(got, mult)} vs {over_cyclotomic(lef, mult)}"
        )
        name = f"q^{n} = Lefschetz number of the {twist} twist"
        items.append(ReportItem(name, "fail" if text else "pass", coefficient=text))
    name, ok = "squared reduced line bundle expands in the atoms", lefschetz[2] == lefschetz[3]
    items.append(ReportItem(name, "pass" if ok else "fail"))
    return VerificationReport.from_items(
        items, {"flavor": flavor.value, "k": fixture.k, "label": fixture.label}
    )


def check_rigidity(
    fixture: FixedPointFixture, flavor: IndexFlavor, order: int
) -> VerificationReport:
    """Classify each q-coefficient as zero / constant / w-dependent.

    Verdicts: VANISHING if every coefficient is zero, RIGID if every
    coefficient is a constant, otherwise NON-RIGID when the anomaly is
    consistent and INDETERMINATE when it is not (the theorems' hypothesis
    fails, so non-constancy refutes nothing).  The first offending
    coefficient is always named.
    """
    an = anomaly(fixture, flavor)
    ixs = index_series(fixture, flavor, order)
    items = []
    all_zero = True
    offender = None
    for i in range(order + 1):
        c = ixs.q_coefficient(i)
        if c.is_zero():
            items.append(ReportItem(f"q^{i}", "pass", detail="zero"))
            continue
        all_zero = False
        if c.is_constant():
            items.append(ReportItem(f"q^{i}", "pass", detail=f"constant {c.constant_value()}"))
        else:
            if offender is None:
                offender = i
            items.append(ReportItem(f"q^{i}", "fail", coefficient=str(c)))
    if all_zero:
        verdict, ok = "VANISHING", True
    elif offender is None:
        verdict, ok = "RIGID", True
    elif an.consistent:
        verdict, ok = "NON-RIGID", False
    else:
        verdict, ok = "INDETERMINATE", False
    meta = {
        "flavor": flavor.value,
        "k": fixture.k,
        "order": order,
        "label": fixture.label,
        "anomaly_consistent": an.consistent,
        "n": an.n,
        "per_point_n": list(an.per_point),
    }
    if offender is not None:
        meta["first_offending_coefficient"] = offender
    return VerificationReport(verdict=verdict, ok=ok, items=items, meta=meta)


def evaluate_at_identity(ixs: IndexSeries) -> VerificationReport:
    """Evaluate every coefficient at w = 1; poles are reported, not patched.

    A pole at w = 1 in a reduced coefficient means the fixture is not the
    fixed-point data of a closed manifold.  Values must come out as real
    integers (the ordinary indices).
    """
    items = []
    values = []
    for i in range(ixs.order + 1):
        c = ixs.q_coefficient(i)
        if c.has_pole_at_one():
            items.append(ReportItem(f"q^{i}", "fail", coefficient=str(c), detail="pole at w=1"))
            continue
        v = c.value_at_one()
        if not v.is_integer():
            items.append(
                ReportItem(f"q^{i}", "fail", coefficient=str(v), detail="non-integer value")
            )
            continue
        values.append(v.as_integer())
        items.append(ReportItem(f"q^{i}", "pass", detail=str(v.as_integer())))
    return VerificationReport.from_items(
        items,
        {
            "flavor": ixs.flavor.value,
            "label": ixs.fixture.label,
            "order": ixs.order,
            "values": values if len(values) == len(items) else None,
        },
    )


# numeric evaluation and the transformation laws


def point_value(
    point: FixedPoint,
    k: int,
    flavor: IndexFlavor,
    t: complex,
    tau: complex,
) -> complex:
    """Floating-point value of one fixed point's summand."""
    value = (1 / (2j * cmath.pi)) ** k
    tp = theta_prime_zero(tau)
    for a in point.alpha:
        value *= tp / theta_eval(ThetaKind.THETA, a * t, tau)
    if flavor is IndexFlavor.I_SERIES:
        for kind in _EVEN_KINDS:
            value *= theta_eval(kind, point.c * t, tau) / theta_eval(kind, 0, tau)
    else:
        denom = 1
        for kind in _EVEN_KINDS:
            denom *= theta_eval(kind, 0, tau)
        value *= 1j * theta_eval(ThetaKind.THETA, point.c * t, tau) / denom
    bracket = 0j
    for kind in (ThetaKind.THETA, ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3):
        prod = 1 + 0j
        for b in point.beta:
            prod *= theta_eval(kind, b * t, tau)
        bracket += prod
    return value * bracket


def index_value(
    fixture: FixedPointFixture, flavor: IndexFlavor, t: complex, tau: complex
) -> complex:
    return sum(point_value(p, fixture.k, flavor, t, tau) for p in fixture.points)


def check_transform_laws(
    fixture: FixedPointFixture,
    flavor: IndexFlavor,
    t: complex,
    tau: complex,
    a: int,
    b: int,
    tol: float = 1e-8,
) -> VerificationReport:
    """Numeric residuals of the three transformation laws, summand-wise.

    tau -> tau + 1 leaves the series fixed; tau -> -1/tau has weight k + 4
    for the even tower and k + 3 for the odd one, with the Gaussian factor
    e^(pi i n t^2 / tau); for the lattice shift t -> t + a tau + b (a, b
    even) two candidate multipliers are tried and the one that holds is
    reported: the standard e^(-pi i n (a^2 tau + 2 a t)) and the variant
    e^(-pi i n (b^2 tau + 2 b tau)).  Each law holds per point with that
    point's own anomaly value n; totals are checked when the fixture is
    anomaly-consistent.  Residuals are relative: the lattice multipliers
    are exponentially large in n, a and Im(tau).
    """
    t, tau = complex(t), complex(tau)
    if not (cmath.isfinite(t) and cmath.isfinite(tau)):
        raise ValueError(
            f"index series cannot be evaluated at t={t}, tau={tau}: t and tau must be finite"
        )
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    if a % 2 or b % 2:
        raise ValueError("lattice shifts use even integers a, b")
    an = anomaly(fixture, flavor)
    weight = fixture.k + (4 if flavor is IndexFlavor.I_SERIES else 3)
    standard = "lattice law (standard exponent)"
    printed = "lattice law (printed exponent)"

    def laws(n: int):
        """Rows (law, column of the transformed value, multiplier) for anomaly n."""
        return (
            ("T-law", 1, 1),
            ("S-law", 2, tau**weight * cmath.exp(1j * cmath.pi * n * t * t / tau)),
            (standard, 3, cmath.exp(-1j * cmath.pi * n * (a * a * tau + 2 * a * t))),
            (printed, 3, cmath.exp(-1j * cmath.pi * n * (b * b * tau + 2 * b * tau))),
        )

    items = []
    failed = set()

    def check(label: str, values, rows, summands=()) -> None:
        for law, col, f in rows:
            rhs = f * values[0]
            scale = max((abs(v[col]) for v in summands), default=1.0)
            r = abs(values[col] - rhs) / max(1.0, abs(rhs), scale)
            if not cmath.isfinite(r):  # a summand or the multiplier left float range
                raise ValueError(f"{label} {law} residual is {r}")
            items.append(ReportItem(f"{label} {law}", "pass" if r < tol else "fail", residual=r))
            if not r < tol:
                failed.add(law)

    # a summand on or near a zero of theta(alpha t), or an argument too large
    # for cmath, makes the numeric evaluation fail: that is bad input
    try:
        arguments = ((t, tau), (t, tau + 1), (t / tau, -1 / tau), (t + a * tau + b, tau))
        per_point = [
            tuple(point_value(p, fixture.k, flavor, *ta) for ta in arguments)
            for p in fixture.points
        ]
        for idx, (values, n) in enumerate(zip(per_point, an.per_point)):
            check(f"point {idx}", values, laws(n))
        if an.consistent and len(fixture.points) > 1:
            # the sum can cancel to zero while its summands are exponentially
            # large; the attainable precision scales with the largest summand
            total = [sum(vs) for vs in zip(*per_point)]
            check("total", total, laws(an.n), per_point)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:  # cmath's domain error too
        raise ValueError(
            f"index series cannot be evaluated at t={t}, tau={tau}: {exc}"
        ) from exc

    resolved = {
        (True, True): "both",
        (True, False): "standard",
        (False, True): "printed",
        (False, False): "neither",
    }[standard not in failed, printed not in failed]
    ok = not failed & {"T-law", "S-law"} and not {standard, printed} <= failed
    return VerificationReport(
        verdict="pass" if ok else "fail",
        ok=ok,
        items=items,
        meta={
            "flavor": flavor.value,
            "k": fixture.k,
            "label": fixture.label,
            "t": str(t),
            "tau": str(tau),
            "a": a,
            "b": b,
            "tol": tol,
            "weight": weight,
            "lattice_law_resolved": resolved,
            "anomaly_consistent": an.consistent,
            "n": an.n,
            "per_point_n": list(an.per_point),
        },
    )


_BRANCH_TABLE_NOTE = "vanishing parity: odd k for the even tower, even k for the odd tower"


def classify(fixture: FixedPointFixture, flavor: IndexFlavor, order: int) -> VerificationReport:
    """Predict the theorem branch from n and k, then compare with observation.

    Branches (even tower; the odd tower flips the k parity):
    (i) n < 0: the series vanishes identically; (ii) n = 0: rigid, and
    vanishing for odd k; (iii) n = 2 with odd k: vanishing.  Other (n, k)
    carry no prediction.  An inconsistent anomaly also carries none.
    """
    an = anomaly(fixture, flavor)
    odd_parity_vanishes = flavor is IndexFlavor.I_SERIES
    branch = "none"
    predicted = None
    if an.consistent:
        n = an.n
        k_vanishing = (fixture.k % 2 == 1) if odd_parity_vanishes else (fixture.k % 2 == 0)
        if n < 0:
            branch, predicted = "i", "VANISHING"
        elif n == 0:
            branch, predicted = "ii", "VANISHING" if k_vanishing else "RIGID"
        elif n == 2 and k_vanishing:
            branch, predicted = "iii", "VANISHING"
    rigidity = check_rigidity(fixture, flavor, order)
    observed = rigidity.verdict
    if predicted is None:
        ok = True
        consistency = "no prediction"
    elif predicted == "VANISHING":
        ok = observed == "VANISHING"
        consistency = "consistent" if ok else "inconsistent"
    else:  # RIGID predicted; vanishing is rigid too
        ok = observed in ("RIGID", "VANISHING")
        consistency = "consistent" if ok else "inconsistent"
    n_str = f"n={an.n}" if an.consistent else f"n inconsistent {list(an.per_point)}"
    verdict = f"{observed} (branch {branch}, {n_str}): {consistency}"
    items = [
        ReportItem(
            "branch prediction",
            "info",
            detail=f"branch {branch}: predicted {predicted or 'nothing'} ({_BRANCH_TABLE_NOTE})",
        )
    ]
    if (
        flavor is IndexFlavor.I_SERIES
        and branch == "i"
        and all(p.c == 0 for p in fixture.points)
    ):
        items.append(
            ReportItem(
                "spin case note",
                "info",
                detail=(
                    "c = 0 everywhere: the constant value of the series equals "
                    "minus the index of the Rarita-Schwinger operator "
                    "(tangent-bundle twist of the Dirac operator)"
                ),
            )
        )
    items.extend(rigidity.items)
    return VerificationReport(
        verdict=verdict,
        ok=ok,
        items=items,
        meta={
            **rigidity.meta,
            "branch": branch,
            "predicted": predicted,
            "observed": observed,
            "consistency": consistency,
        },
    )
