"""Fixed-point fixture data model and its JSON file format.

A fixture stands in for a closed manifold of dimension 2k with a circle
action having isolated fixed points: per point, the k nonzero rotation
weights alpha_j, the weight c of the line bundle, and the 8 torus weights
beta_l of the lift.  Realizability as an actual manifold is the caller's
responsibility.

File schema::

    {"label": str, "k": int, "flavor": "I"|"J",
     "points": [{"alpha": [int, ...], "c": int, "beta": [int x 8]}]}

Unknown fields are rejected; "beta" defaults to zeros and "c" to 0 (the
spin case); "flavor" defaults to "I".  Each beta entry lies in
-MAX_BETA..MAX_BETA.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import FixtureFormatError


class IndexFlavor(enum.Enum):
    I_SERIES = "I"
    J_SERIES = "J"


@dataclass(frozen=True)
class FixedPoint:
    alpha: tuple[int, ...]
    c: int = 0
    beta: tuple[int, ...] = (0,) * 8

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(int(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(int(b) for b in self.beta))
        object.__setattr__(self, "c", int(self.c))
        if any(a == 0 for a in self.alpha):
            raise ValueError("rotation weights must be nonzero at an isolated fixed point")
        if len(self.beta) != 8:
            raise ValueError(f"beta must have 8 entries, got {len(self.beta)}")


@dataclass(frozen=True)
class FixedPointFixture:
    k: int
    points: tuple[FixedPoint, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if not self.points:
            raise ValueError("fixture needs at least one fixed point")
        for p in self.points:
            if len(p.alpha) != self.k:
                raise ValueError(
                    f"point has {len(p.alpha)} rotation weights, fixture has k={self.k}"
                )


# largest |beta_l| a fixture file may give: the lattice block's cost grows
# with the number of distinct w-exponents beta.d, and a two-point k = 1
# fixture with beta = (1, 10, ..., 10^7) took 456 MiB at order 10; with
# every |beta_l| <= 30 order 30 stays under 4 s and 30 MiB
MAX_BETA = 30


def _require(cond: bool, field_name: str, message: str):
    if not cond:
        raise FixtureFormatError(f"field {field_name!r}: {message}")


def fixture_from_dict(data: dict) -> tuple[FixedPointFixture, IndexFlavor]:
    _require(isinstance(data, dict), "<root>", "fixture must be a JSON object")
    unknown = set(data) - {"label", "k", "flavor", "points"}
    _require(not unknown, sorted(unknown)[0] if unknown else "", "unknown field")
    _require("k" in data, "k", "missing")
    _require(isinstance(data["k"], int) and not isinstance(data["k"], bool), "k", "must be an integer")
    _require("points" in data, "points", "missing")
    _require(isinstance(data["points"], list) and data["points"], "points", "must be a nonempty list")
    label = data.get("label", "")
    _require(isinstance(label, str), "label", "must be a string")
    flavor_tag = data.get("flavor", "I")
    _require(flavor_tag in ("I", "J"), "flavor", 'must be "I" or "J"')

    points = []
    for i, pd in enumerate(data["points"]):
        where = f"points[{i}]"
        _require(isinstance(pd, dict), where, "must be an object")
        unknown = set(pd) - {"alpha", "c", "beta"}
        _require(not unknown, f"{where}.{sorted(unknown)[0]}" if unknown else "", "unknown field")
        _require("alpha" in pd, f"{where}.alpha", "missing")
        alpha = pd["alpha"]
        _require(
            isinstance(alpha, list) and all(isinstance(a, int) and not isinstance(a, bool) for a in alpha),
            f"{where}.alpha",
            "must be a list of integers",
        )
        _require(all(a != 0 for a in alpha), f"{where}.alpha", "weights must be nonzero")
        c = pd.get("c", 0)
        _require(isinstance(c, int) and not isinstance(c, bool), f"{where}.c", "must be an integer")
        beta = pd.get("beta", [0] * 8)
        _require(
            isinstance(beta, list)
            and len(beta) == 8
            and all(isinstance(b, int) and not isinstance(b, bool) for b in beta),
            f"{where}.beta",
            "must be a list of 8 integers",
        )
        _require(
            all(abs(b) <= MAX_BETA for b in beta),
            f"{where}.beta",
            f"entries must lie in -{MAX_BETA}..{MAX_BETA}",
        )
        points.append(FixedPoint(tuple(alpha), c, tuple(beta)))

    try:
        fixture = FixedPointFixture(k=data["k"], points=tuple(points), label=label)
    except ValueError as exc:
        raise FixtureFormatError(str(exc)) from exc
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
    except json.JSONDecodeError as exc:
        raise FixtureFormatError(f"invalid JSON in {path}: {exc}") from exc
    return fixture_from_dict(data)


def save_fixture(fixture: FixedPointFixture, flavor: IndexFlavor, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(fixture_to_dict(fixture, flavor), f, indent=2)
        f.write("\n")


BUNDLED_FIXTURES = ("s2", "s2xs2", "cp1_spinc", "cp2", "single_point")


def bundled_fixture_path(name: str) -> Path:
    """Resolve a bundled fixture by bare name or filename."""
    stem = name[:-5] if name.endswith(".json") else name
    if stem not in BUNDLED_FIXTURES:
        raise FixtureFormatError(
            f"field 'fixture': no bundled fixture {name!r}; "
            f"available: {', '.join(BUNDLED_FIXTURES)}"
        )
    return Path(str(resources.files("e8theta").joinpath("data", f"{stem}.json")))


def resolve_fixture(path_or_name: str) -> tuple[FixedPointFixture, IndexFlavor]:
    """Load from an existing path, else fall back to the bundled fixtures."""
    p = Path(path_or_name)
    if p.exists():
        return load_fixture(p)
    return load_fixture(bundled_fixture_path(path_or_name))
