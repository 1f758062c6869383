import pytest
from hypothesis import given, settings, strategies as st

from e8theta.errors import FixtureFormatError
from e8theta.fixtures import (
    BUNDLED_FIXTURES,
    MAX_BETA,
    FixedPoint,
    FixedPointFixture,
    IndexFlavor,
    bundled_fixture_path,
    fixture_from_dict,
    load_fixture,
    resolve_fixture,
    save_fixture,
)


def test_bundled_fixtures_load():
    for name in BUNDLED_FIXTURES:
        fixture, flavor = load_fixture(bundled_fixture_path(name))
        assert fixture.points
        assert flavor is IndexFlavor.I_SERIES


def test_resolve_accepts_bare_name_and_json_suffix():
    a, _ = resolve_fixture("s2")
    b, _ = resolve_fixture("s2.json")
    assert a == b


def test_resolve_prefers_real_paths(tmp_path):
    target = tmp_path / "s2.json"  # shadows the bundled name
    save_fixture(
        FixedPointFixture(k=1, points=(FixedPoint((5,)),), label="shadow"),
        IndexFlavor.J_SERIES,
        target,
    )
    fixture, flavor = resolve_fixture(str(target))
    assert fixture.label == "shadow"
    assert flavor is IndexFlavor.J_SERIES


def test_roundtrip(tmp_path):
    fx = FixedPointFixture(
        k=2,
        points=(FixedPoint((1, -2), 3, (1, 0, 0, 0, 0, 0, 2, 0)), FixedPoint((2, 2), 0)),
        label="roundtrip",
    )
    path = tmp_path / "f.json"
    save_fixture(fx, IndexFlavor.J_SERIES, path)
    loaded, flavor = load_fixture(path)
    assert loaded == fx
    assert flavor is IndexFlavor.J_SERIES


def test_defaults_applied():
    fx, flavor = fixture_from_dict(
        {"k": 1, "points": [{"alpha": [1]}, {"alpha": [-1]}]}
    )
    assert flavor is IndexFlavor.I_SERIES
    assert fx.points[0].c == 0
    assert fx.points[0].beta == (0,) * 8


@pytest.mark.parametrize(
    "data,needle",
    [
        ({"k": 1, "points": [{"alpha": [1]}], "extra": 1}, "extra"),
        ({"k": 1, "points": [{"alpha": [1], "gamma": 2}]}, "gamma"),
        ({"points": [{"alpha": [1]}]}, "k"),
        ({"k": 1}, "points"),
        ({"k": 1, "points": []}, "points"),
        ({"k": 1, "points": [{"alpha": [0]}]}, "alpha"),
        ({"k": 1, "points": [{"alpha": [1], "beta": [1, 2]}]}, "beta"),
        ({"k": 1, "points": [{"alpha": [1], "c": "x"}]}, "c"),
        ({"k": 2, "points": [{"alpha": [1]}]}, "rotation weights"),
        ({"k": 1, "flavor": "K", "points": [{"alpha": [1]}]}, "flavor"),
    ],
)
def test_malformed_fixtures_name_the_field(data, needle):
    with pytest.raises(FixtureFormatError) as err:
        fixture_from_dict(data)
    assert needle in str(err.value)


def test_beta_entries_are_bounded():
    """|beta_l| <= MAX_BETA loads; one entry past it is rejected by name."""
    assert MAX_BETA == 30
    edge = [MAX_BETA, -MAX_BETA, 0, 0, 0, 0, 0, 0]
    fixture, _ = fixture_from_dict({"k": 1, "points": [{"alpha": [1], "beta": edge}]})
    assert fixture.points[0].beta == tuple(edge)
    for entry in (MAX_BETA + 1, -MAX_BETA - 1):
        wide = {"alpha": [-1], "beta": [0] * 7 + [entry]}
        with pytest.raises(FixtureFormatError, match=r"points\[1\]\.beta"):
            fixture_from_dict({"k": 1, "points": [{"alpha": [1]}, wide]})


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FixtureFormatError):
        load_fixture(path)


def test_unknown_bundled_name():
    with pytest.raises(FixtureFormatError):
        bundled_fixture_path("not_a_fixture")


def test_isolated_fixed_point_requires_nonzero_weights():
    with pytest.raises(ValueError):
        FixedPoint((0,), 0)


def test_bundled_cp2_matches_documented_weights():
    fx, _ = resolve_fixture("cp2")
    assert fx.k == 2
    assert [list(p.alpha) for p in fx.points] == [[1, 2], [-1, 1], [-2, -1]]
    assert [p.c for p in fx.points] == [3, 0, -3]
    assert all(p.c == sum(p.alpha) for p in fx.points)


# a dropped field, or a value of the wrong type or shape for some field
_DROP = object()
_ODD = (_DROP, None, True, -1, 0, 2.5, "x", "K", [], [0], [1] * 8, {})
_ROOT_KEYS = ("label", "k", "flavor", "points", "extra")
_POINT_KEYS = ("alpha", "c", "beta", "gamma")


@st.composite
def _fixture_documents(draw):
    """A well-formed fixture document, half the time with one field
    dropped or set to an odd value."""
    k = draw(st.integers(1, 3))
    weight = st.integers(-3, 3)
    point = st.fixed_dictionaries(
        {"alpha": st.lists(weight.filter(bool), min_size=k, max_size=k)},
        optional={"c": weight, "beta": st.lists(weight, min_size=8, max_size=8)},
    )
    doc = draw(
        st.fixed_dictionaries(
            {"k": st.just(k), "points": st.lists(point, min_size=1, max_size=3)},
            optional={"label": st.text(max_size=5), "flavor": st.sampled_from(["I", "J"])},
        )
    )
    if draw(st.booleans()):
        target = draw(st.sampled_from([doc, *doc["points"]]))
        key = draw(st.sampled_from(_ROOT_KEYS if target is doc else _POINT_KEYS))
        value = draw(st.sampled_from(_ODD))
        if value is _DROP:
            target.pop(key, None)
        else:
            target[key] = value
    return doc


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=_fixture_documents() | st.sampled_from(_ODD[1:]))
def test_fuzzed_fixture_loads_or_raises_format_error(data, tmp_path_factory):
    """A fixture document either loads or raises FixtureFormatError, and
    whatever loads survives a save/load round trip unchanged."""
    try:
        fixture, flavor = fixture_from_dict(data)
    except FixtureFormatError:
        return
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    save_fixture(fixture, flavor, path)
    assert load_fixture(path) == (fixture, flavor)
