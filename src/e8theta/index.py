"""Equivariant index series for circle actions with isolated fixed points.

Per fixed point the series is a product of three blocks on the
u = q^(1/24) lattice, divided by the tangent lead below:

* tangent block: over the rotation weights alpha_j, the quotient
  theta'(0,tau) / (2 pi i theta(alpha_j t, tau)), implemented as the
  identity  phi(q)^2 / ((w^a - w^-a) prod_m (1 - w^(2a) q^m)(1 - w^(-2a) q^m));
  the 2 pi i cancels symbolically.  The q-product's inverse is built as a
  product of factors 1 + y^(2^j), y = w^(+-2a) q^m; only the lead
  D_p = prod_j (w^a - w^-a) needs the fraction field.  The identity is
  asserted against a numeric evaluation once per process before first use.
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
phi^(2k-3) q^(-1/8).  Every block is built and multiplied as an
`intseries` block over Z[w^+-1] with plain ints: the shared factor is
intseries.phi_block shifted, the lattice block the lattice sum's own block.
The only Q(i) values are the tangent leads and the cofactors D / D_p; a
cofactor enters as a one-term block through intseries.from_laurent, which
raises on a coefficient that is not a real integer, so the result is real
by construction.  index_series builds the shared factor once per fixture and
the lattice block once per distinct beta.  Each point adds its tangent
q-series times its line numerator, scaled by D / D_p with D = lcm_p D_p;
the points with one beta are summed, then multiplied once by that beta's
lattice block times the shared factor.  Each q^n coefficient of the total
becomes one RationalFunction over D (in point_contribution, over D_p).

Every block expands through q^order and no further: validity propagation
then leaves the product valid through exactly u^(24 order).  That only
whole powers of q survive the sum over the points is asserted.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from . import intseries
from .bundles import BundleExpr, order_one_twist
from .e8 import _lattice_series
from .fixtures import FixedPoint, FixedPointFixture, IndexFlavor
from .laurent import LaurentPolynomial, laurent_exact_div, laurent_gcd
from .ratfunc import RationalFunction
from .report import ReportItem, VerificationReport
from .series import TruncatedSeries, U_PER_Q
from .theta import ThetaKind, theta_eval, theta_prime_zero, theta_product

# largest order index_series expands to: cp2 (k = 2, three points) takes
# about 0.15 s at order 30 on a 2-vCPU host
MAX_INDEX_ORDER = 30


@dataclass(frozen=True)
class AnomalyResult:
    """Per-point values of sum(beta^2) + (3 or 1) c^2 - sum(alpha^2)."""

    per_point: tuple[int, ...]
    consistent: bool
    n: int | None


def anomaly(fixture: FixedPointFixture, flavor: IndexFlavor) -> AnomalyResult:
    coeff = 3 if flavor is IndexFlavor.I_SERIES else 1
    values = tuple(
        sum(b * b for b in p.beta) + coeff * p.c * p.c - sum(a * a for a in p.alpha)
        for p in fixture.points
    )
    consistent = len(set(values)) == 1
    return AnomalyResult(values, consistent, values[0] if consistent else None)


@dataclass
class IndexSeries:
    flavor: IndexFlavor
    fixture: FixedPointFixture
    series: TruncatedSeries  # rational-function coefficients, whole q-powers
    order: int

    def q_coefficient(self, n: int) -> RationalFunction:
        return self.series.q_coefficient(n)


_EVEN_KINDS = (ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3)


def _tangent_lead(alpha: tuple[int, ...]) -> LaurentPolynomial:
    """prod_j (w^(alpha_j) - w^(-alpha_j)), the tangent factor's q^0 part."""
    lead = LaurentPolynomial({0: 1})
    for a in alpha:
        lead = lead * LaurentPolynomial({a: 1, -a: -1})
    return lead


def _tangent_block(
    alpha: tuple[int, ...], validity: int
) -> tuple[LaurentPolynomial, intseries.Block]:
    """Split the tangent denominator into its lead and its q-product.

    Returns the lead and the inverse of prod_j prod_m (1 - w^(2a) q^m)(1 - w^(-2a) q^m),
    as 1/(1 - y) = (1 + y)(1 + y^2)(1 + y^4)... with y = w^(+-2a) q^m.
    """
    coeffs = {0: {0: 1}}
    for a in alpha:
        for x in (2 * a, -2 * a):
            for e in range(U_PER_Q, validity + 1, U_PER_Q):
                intseries.times_inverse(coeffs, x, e, validity)
    return _tangent_lead(alpha), (coeffs, validity)


def _lcm(leads: list[LaurentPolynomial]):
    """D = lcm of the tangent leads D_p, and the list of D / D_p."""
    den = leads[0]
    for lead in leads[1:]:
        den = den * laurent_exact_div(lead, laurent_gcd(den, lead))
    return den, [laurent_exact_div(den, lead) for lead in leads]


def _over(block: intseries.Block, den: LaurentPolynomial, order: int) -> TruncatedSeries:
    """The block through q^order, each coefficient one RationalFunction over den."""
    target = U_PER_Q * order
    if block[1] < target:
        raise AssertionError(f"validity shortfall: {block[1]} < {target}")
    out = {
        e: RationalFunction(LaurentPolynomial(c), den) for e, c in block[0].items() if e <= target
    }
    return TruncatedSeries(out, target, RationalFunction.zero())


def _point_block(point: FixedPoint, flavor: IndexFlavor, order: int):
    """A point's tangent lead, and its tangent q-series times its line numerator."""
    lead, tangent = _tangent_block(point.alpha, U_PER_Q * order)
    kinds = _EVEN_KINDS if flavor is IndexFlavor.I_SERIES else (ThetaKind.THETA,)
    line = theta_product([(kind, point.c) for kind in kinds], order)
    return lead, intseries.mul(tangent, line)


def _shared_block(k: int, order: int) -> intseries.Block:
    """2 phi^(2k) / (theta_1 theta_2 theta_3)(0) = phi^(2k-3) q^(-1/8), by Jacobi."""
    coeffs, validity = intseries.phi_block(2 * k - 3, order)
    return {e - 3: p for e, p in coeffs.items()}, validity - 3


_factor_identity_checked = False


def _assert_quotient_identity():
    """One-shot numeric check of the tangent-block series identity."""
    global _factor_identity_checked
    if _factor_identity_checked:
        return
    order = 6
    lead, tangent = _tangent_block((1,), U_PER_Q * order)
    quotient = _over(intseries.mul(intseries.phi_block(2, order), tangent), lead, order)
    t, tau = 0.23, 1.3j
    w = cmath.exp(1j * cmath.pi * t)
    u = cmath.exp(2j * cmath.pi * tau / U_PER_Q)
    lhs = quotient.evaluate(u, lambda c: c.evaluate(w))
    rhs = theta_prime_zero(tau) / (2j * cmath.pi * theta_eval(ThetaKind.THETA, t, tau))
    if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
        raise AssertionError(
            f"tangent-block series identity failed numerically: {lhs} vs {rhs}"
        )
    _factor_identity_checked = True


def _summed(points, k: int, flavor: IndexFlavor, order: int) -> TruncatedSeries:
    """Sum of the points' summands through q^order, each coefficient over D = lcm_p D_p."""
    blocks = [_point_block(p, flavor, order) for p in points]
    den, cofactors = _lcm([lead for lead, _ in blocks])
    by_beta = {}
    for p, (_, own), cofactor in zip(points, blocks, cofactors):
        own = intseries.mul(own, intseries.from_laurent(cofactor, own[1]))
        by_beta[p.beta] = intseries.add(own, by_beta.get(p.beta, ({}, own[1])))
    shared = _shared_block(k, order)
    numer = ({}, U_PER_Q * order)
    for beta, part in by_beta.items():
        lattice = _lattice_series(beta, order)
        numer = intseries.add(numer, intseries.mul(part, intseries.mul(lattice, shared)))
    return _over(numer, den, order)


def point_contribution(
    point: FixedPoint, k: int, flavor: IndexFlavor, order: int
) -> TruncatedSeries:
    """Exact series of one fixed point's summand over its own lead, through q^order."""
    _assert_quotient_identity()
    return _summed((point,), k, flavor, order)


def index_series(fixture: FixedPointFixture, flavor: IndexFlavor, order: int) -> IndexSeries:
    """Sum of the fixed-point contributions, with structural assertions.

    The order must lie in 0..MAX_INDEX_ORDER; anything else raises
    ValueError before any block is expanded.
    """
    if not 0 <= order <= MAX_INDEX_ORDER:
        raise ValueError(f"index order must lie in 0..{MAX_INDEX_ORDER}, got {order}")
    _assert_quotient_identity()
    total = _summed(fixture.points, fixture.k, flavor, order)
    if not total.whole_q_powers():
        bad = min(e for e in total.coeffs if e % U_PER_Q)
        raise AssertionError(f"fractional q-power u^{bad} survived point summation")
    return IndexSeries(flavor, fixture, total, order)


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
    return _sum_lefschetz(FixedPointFixture(k, (point,)), expr, flavor)


def verify_qexpansion(fixture: FixedPointFixture, flavor: IndexFlavor) -> VerificationReport:
    """Check the q^0 and q^1 coefficients against direct Lefschetz numbers.

    The two routes are independent: the series comes from theta quotients,
    the Lefschetz numbers from equivariant characters of the named twists.
    Also checks the square of the rank-reduced line bundle against its
    expansion in the atoms.
    """
    ixs = index_series(fixture, flavor, 1)
    twists = (BundleExpr.const(1), order_one_twist(flavor is IndexFlavor.I_SERIES, fixture.k))
    items = []
    for n, (name, expr) in enumerate(zip(("bare", "order-one"), twists)):
        got, lef = ixs.q_coefficient(n), _sum_lefschetz(fixture, expr, flavor)
        ok = got == lef
        items.append(
            ReportItem(
                f"q^{n} = Lefschetz number of the {name} twist",
                "pass" if ok else "fail",
                coefficient=None if ok else f"{got} vs {lef}",
            )
        )

    square = BundleExpr.line_reduced() * BundleExpr.line_reduced()
    atom = BundleExpr.atom
    expanded = atom("L2") + atom("Lbar2") - 4 * (atom("L") + atom("Lbar")) + BundleExpr.const(6)
    ok2 = _sum_lefschetz(fixture, square, flavor) == _sum_lefschetz(fixture, expanded, flavor)
    items.append(
        ReportItem("squared reduced line bundle expands in the atoms", "pass" if ok2 else "fail")
    )

    return VerificationReport.from_items(
        items, {"flavor": flavor.value, "k": fixture.k, "label": fixture.label}
    )


def _sum_lefschetz(
    fixture: FixedPointFixture, expr: BundleExpr, flavor: IndexFlavor
) -> RationalFunction:
    """The points' Lefschetz numbers summed as sum_p num_p (D / D_p) over one D."""
    den, cofactors = _lcm([_tangent_lead(p.alpha) for p in fixture.points])
    sign = 1 if flavor is IndexFlavor.I_SERIES else -1
    num = LaurentPolynomial()
    for p, cofactor in zip(fixture.points, cofactors):
        spinor = {p.c: 1}
        spinor[-p.c] = spinor.get(-p.c, 0) + sign
        num = num + LaurentPolynomial(spinor) * expr.char_at(p.alpha, p.c, p.beta) * cofactor
    return RationalFunction(num, den)


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
    all_const = True
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
            all_const = False
            if offender is None:
                offender = i
            items.append(ReportItem(f"q^{i}", "fail", coefficient=str(c)))
    if all_zero:
        verdict, ok = "VANISHING", True
    elif all_const:
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
            items.append(ReportItem(f"{label} {law}", "pass" if r < tol else "fail", residual=r))
            if not r < tol:
                failed.add(law)

    # a summand on a zero of theta(alpha t), or an argument far enough off
    # the real axis, makes the numeric evaluation fail: that is bad input
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
    except (ZeroDivisionError, OverflowError) as exc:
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
