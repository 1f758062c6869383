"""Fixed-point fixture data model and its JSON file format.

A fixture stands in for a closed manifold of dimension 2k with a circle
action having isolated fixed points: per point, the k nonzero rotation
weights alpha_j, the weight c of the line bundle, and the 8 torus weights
beta_l of the lift.  Realizability as an actual manifold is the caller's
responsibility.

Each value is checked once, where it is defined, and never converted (a
float or a bool raises): FixedPoint checks alpha and c, e8.validate_beta
checks beta (for the e8 functions and --beta too), and FixedPointFixture
checks k, label, points and that each point has k weights.  Every check
raises FixtureFormatError naming the field.  File schema::

    {"label": str, "k": int, "flavor": "I"|"J",
     "points": [{"alpha": [int, ...], "c": int, "beta": [int x 8]}]}

fixture_from_dict checks only the document's structure (unknown or missing
fields, a list of point objects, the flavor tag) and names a point's field
as points[i].<field>.  "beta" defaults to zeros and "c" to 0 (the spin
case); "flavor" defaults to "I".
"""

from __future__ import annotations

import enum
import json
import os.path

from .e8 import validate_beta
from .errors import FixtureFormatError
from .record import FrozenRecord


def _require(cond: bool, field_name: str, message: str):
    if not cond:
        raise FixtureFormatError(field_name, message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class IndexFlavor(enum.Enum):
    I_SERIES = "I"
    J_SERIES = "J"


class FixedPoint(FrozenRecord):
    __slots__ = ("alpha", "c", "beta")

    def __init__(self, alpha: tuple[int, ...], c: int = 0, beta: tuple[int, ...] = (0,) * 8):
        _require(
            isinstance(alpha, (list, tuple)) and all(_is_int(a) and a != 0 for a in alpha),
            "alpha",
            "must be a list of integers, all nonzero at an isolated fixed point",
        )
        _require(_is_int(c), "c", "must be an integer")
        object.__setattr__(self, "alpha", tuple(alpha))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "beta", validate_beta(beta))


class FixedPointFixture(FrozenRecord):
    __slots__ = ("k", "points", "label")

    def __init__(self, k: int, points: tuple[FixedPoint, ...], label: str = ""):
        _require(_is_int(k) and k >= 1, "k", "must be a positive integer")
        _require(isinstance(label, str), "label", "must be a string")
        _require(
            isinstance(points, (list, tuple))
            and points
            and all(isinstance(p, FixedPoint) for p in points),
            "points",
            "must be a nonempty list of fixed points",
        )
        for i, p in enumerate(points):
            n = len(p.alpha)
            _require(n == k, f"points[{i}].alpha", f"{n} rotation weights, but k={k}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "label", label)


def fixture_from_dict(data: dict) -> tuple[FixedPointFixture, IndexFlavor]:
    _require(isinstance(data, dict), "<root>", "fixture must be a JSON object")
    unknown = sorted(set(data) - {"label", "k", "flavor", "points"}, key=str)
    _require(not unknown, unknown[0] if unknown else "", "unknown field")
    _require("k" in data, "k", "missing")
    _require("points" in data, "points", "missing")
    _require(isinstance(data["points"], list), "points", "must be a list")
    flavor_tag = data.get("flavor", "I")
    _require(flavor_tag in ("I", "J"), "flavor", 'must be "I" or "J"')

    points = []
    for i, pd in enumerate(data["points"]):
        where = f"points[{i}]"
        _require(isinstance(pd, dict), where, "must be an object")
        unknown = sorted(set(pd) - {"alpha", "c", "beta"}, key=str)
        _require(not unknown, f"{where}.{unknown[0]}" if unknown else "", "unknown field")
        _require("alpha" in pd, f"{where}.alpha", "missing")
        try:
            points.append(FixedPoint(pd["alpha"], pd.get("c", 0), pd.get("beta", (0,) * 8)))
        except FixtureFormatError as exc:
            raise FixtureFormatError(f"{where}.{exc.field}", exc.message) from None
    fixture = FixedPointFixture(k=data["k"], points=points, label=data.get("label", ""))
    return fixture, IndexFlavor(flavor_tag)


def fixture_to_dict(fixture: FixedPointFixture, flavor: IndexFlavor) -> dict:
    return {
        "label": fixture.label,
        "k": fixture.k,
        "flavor": flavor.value,
        "points": [
            {"alpha": list(p.alpha), "c": p.c, "beta": list(p.beta)}
            for p in fixture.points
        ],
    }


def load_fixture(path) -> tuple[FixedPointFixture, IndexFlavor]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nested deeper than the decoder's recursion limit
        raise FixtureFormatError("<root>", f"invalid JSON in {path}: {exc}") from exc
    return fixture_from_dict(data)


def save_fixture(fixture: FixedPointFixture, flavor: IndexFlavor, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(fixture_to_dict(fixture, flavor), f, indent=2)
        f.write("\n")


BUNDLED_FIXTURES = ("s2", "s2xs2", "cp1_spinc", "cp2", "single_point")


def bundled_fixture_path(name: str) -> str:
    """Resolve a bundled fixture by bare name or filename."""
    stem = name[:-5] if name.endswith(".json") else name
    if stem not in BUNDLED_FIXTURES:
        raise FixtureFormatError(
            "fixture",
            f"no bundled fixture {name!r}; "
            f"available: {', '.join(BUNDLED_FIXTURES)}"
        )
    return os.path.join(os.path.dirname(__file__), "data", f"{stem}.json")


def resolve_fixture(path_or_name: str) -> tuple[FixedPointFixture, IndexFlavor]:
    """Load from an existing path, else fall back to the bundled fixtures."""
    if os.path.exists(path_or_name):
        return load_fixture(path_or_name)
    return load_fixture(bundled_fixture_path(path_or_name))
