"""The value protocol of the package's eight value classes.

Each is built positionally and by keyword with the same defaults, is equal
to another instance exactly when every field is equal, and shows its
fields in its repr.  The frozen ones refuse assignment and hash by value;
the mutable ones take assignment and are unhashable.
"""

import copy
import pickle

import pytest

from e8theta.e8 import BasicCharacter, ShellTable
from e8theta.errors import FixtureFormatError
from e8theta.fixtures import FixedPoint, FixedPointFixture, IndexFlavor
from e8theta.gaussian import ONE
from e8theta.index import AnomalyResult, IndexSeries
from e8theta.report import ReportItem, VerificationReport
from e8theta.series import TruncatedSeries

_P = FixedPoint((1,))
_Q = FixedPoint((-1,), 1)
_S = TruncatedSeries({0: ONE}, 24)
_T = TruncatedSeries({0: ONE + ONE}, 24)

# class -> (two values per field, by name in constructor order; the defaults
# of the trailing fields)
CASES = {
    ReportItem: (
        {
            "name": ("q^0", "q^1"),
            "status": ("pass", "fail"),
            "residual": (0.5, 0.25),
            "coefficient": ("w", "1"),
            "detail": ("zero", "one"),
        },
        (None, None, None),
    ),
    VerificationReport: (
        {
            "verdict": ("pass", "fail"),
            "ok": (True, False),
            "items": ([ReportItem("a", "pass")], []),
            "meta": ({"order": 2}, {}),
        },
        ([], {}),
    ),
    FixedPoint: (
        {"alpha": ((1, 2), (2, 1)), "c": (1, 0), "beta": ((1,) + (0,) * 7, (0,) * 8)},
        (0, (0,) * 8),
    ),
    FixedPointFixture: ({"k": (1, 2), "points": ((_P, _Q), (_P,)), "label": ("s2", "")}, ("",)),
    AnomalyResult: ({"per_point": ((-1, -1), (-1, 2)), "consistent": (True, False), "n": (-1, None)}, ()),
    IndexSeries: (
        {
            "flavor": (IndexFlavor.I_SERIES, IndexFlavor.J_SERIES),
            "fixture": (FixedPointFixture(1, (_P, _Q)), FixedPointFixture(1, (_P,))),
            "series": (_S, _T),
            "order": (1, 2),
        },
        (),
    ),
    ShellTable: ({"max_half_norm": (1, 2), "shells": ({0: [(0,) * 8]}, {})}, ()),
    BasicCharacter: (
        {"beta": ((0,) * 8, (1,) + (0,) * 7), "series": (_S, _T), "graded_dims": ([1, 248], [1])},
        (),
    ),
}
FROZEN = (FixedPoint, FixedPointFixture, AnomalyResult)
# FixedPointFixture wants k weights per point, so a new k comes with new points
_NEW_K = (2, (FixedPoint((1, 2)),), "s2")


def _names(cls):
    return tuple(CASES[cls][0])


def _second(cls, i):
    return list(CASES[cls][0].values())[i][1]


def _first(cls):
    return tuple(pair[0] for pair in CASES[cls][0].values())


def _changed(cls, i):
    """The first values with field i taken from the second set."""
    if cls is FixedPointFixture and i == 0:
        return _NEW_K
    values = list(_first(cls))
    values[i] = _second(cls, i)
    return tuple(values)


def _fields(obj):
    return tuple(getattr(obj, name) for name in _names(type(obj)))


params = pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)


@params
def test_positional_and_keyword_construction_with_defaults(cls):
    values = _first(cls)
    names = _names(cls)
    assert _fields(cls(*values)) == values
    assert _fields(cls(**dict(zip(names, values)))) == values
    defaults = CASES[cls][1]
    required = values[: len(values) - len(defaults)]
    assert _fields(cls(*required)) == required + defaults
    assert _fields(cls(**dict(zip(names, required)))) == required + defaults


@params
def test_equal_by_value_and_unequal_when_any_field_differs(cls):
    a, b = cls(*_first(cls)), cls(*_first(cls))
    assert a == b and not a != b
    assert a != object() and a.__eq__(object()) is NotImplemented
    for i, name in enumerate(_names(cls)):
        other = cls(*_changed(cls, i))
        assert a != other and not a == other, name
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(_names(cls), _first(cls))
    ) + ")"
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_classes_refuse_assignment_and_hash_by_value(cls):
    a = cls(*_first(cls))
    for name in (*_names(cls), "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert _fields(a) == _first(cls)
    assert hash(a) == hash(cls(*_first(cls)))
    assert len({a, cls(*_first(cls)), cls(*_changed(cls, 0))}) == 2


@pytest.mark.parametrize("cls", [c for c in CASES if c not in FROZEN], ids=lambda c: c.__name__)
def test_mutable_classes_take_assignment_and_are_unhashable(cls):
    a = cls(*_first(cls))
    for i, name in enumerate(_names(cls)):
        setattr(a, name, _second(cls, i))
        assert getattr(a, name) == _second(cls, i)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(TypeError):
        hash(a)


def test_reports_do_not_share_default_items_or_meta():
    r, s = VerificationReport("pass", True), VerificationReport(verdict="pass", ok=True)
    assert r.items is not s.items and r.meta is not s.meta
    r.items.append(ReportItem("q^0", "pass"))
    r.meta["order"] = 1
    assert s.items == [] and s.meta == {}
    assert VerificationReport("pass", True).items == []


def test_renaming_an_item_changes_the_report():
    item = ReportItem("lattice sum", "pass")
    report = VerificationReport.from_items([item], {})
    item.name = "renamed"
    assert report.items[0].name == "renamed"
    assert report.summary() == "verdict: pass\n  [pass] renamed"


@pytest.mark.parametrize(
    "build,field",
    [
        (lambda: FixedPoint((0,), 0.5, "bad"), "alpha"),
        (lambda: FixedPoint((1,), 0.5, "bad"), "c"),
        (lambda: FixedPoint((1,), 0, "bad"), "beta"),
        (lambda: FixedPointFixture(0, (), 1), "k"),
        (lambda: FixedPointFixture(1, (), 1), "label"),
        (lambda: FixedPointFixture(1, ()), "points"),
        (lambda: FixedPointFixture(2, (_P,)), "points[0].alpha"),
    ],
)
def test_checks_run_in_field_order(build, field):
    """alpha, c, beta; then k, label, points, and the points' weight counts."""
    with pytest.raises(FixtureFormatError) as info:
        build()
    assert info.value.field == field
