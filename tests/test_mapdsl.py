"""Map DSL parsing: grammar, composition order, caret positions, profiles."""

import pytest
from hypothesis import given, settings, strategies as st

from rotwidth.dynamics import (
    Compose,
    HShear,
    PiecewiseLinearProfile,
    Power,
    Translate,
    VShear,
    eval_lift,
    vnhn,
)
from rotwidth.mapdsl import DslParseError, format_caret, parse_map


class TestGrammar:
    def test_vn_hn(self):
        e = parse_map("V^3 H^3")
        assert isinstance(e, Compose)
        v, h = e.parts
        assert isinstance(v, VShear) and v.power == 3
        assert isinstance(h, HShear) and h.power == 3
        assert eval_lift(e, (0.5, 0.5)) == eval_lift(vnhn(3), (0.5, 0.5))

    def test_translation_rational_and_decimal(self):
        e = parse_map("T(1/3, 0.25)")
        assert isinstance(e, Translate)
        assert e.dx == pytest.approx(1 / 3) and e.dy == 0.25

    def test_group_power(self):
        e = parse_map("(V H)^4")
        assert isinstance(e, Power) and e.exponent == 4
        assert isinstance(e.base, Compose)

    def test_negative_shear_power(self):
        e = parse_map("V^-2")
        assert isinstance(e, VShear) and e.power == -2

    def test_juxtaposition_right_to_left(self):
        # "V H" applies H first: at (0, 1/2), H moves x by 1, then V acts at x=1
        e = parse_map("V H")
        assert eval_lift(e, (0.0, 0.5)) == (1.0, 0.5)

    def test_nested_groups(self):
        e = parse_map("(V (H V)^2)^3")
        assert isinstance(e, Power) and e.exponent == 3


class TestErrors:
    @pytest.mark.parametrize("src,pos", [
        ("V^^2", 2),
        ("T(1,", 4),
        ("(V H", 4),
        ("Q", 0),
        ("V^", 2),
        ("", 0),
        ("V ) H", 2),
        ("T(1/0,1)", 2),
        ("T(1, -3/0)", 5),
        pytest.param("T(" + "9" * 400 + ",1)", 2, id="number-beyond-float"),
        pytest.param("V^" + "9" * 5000, 2, id="exponent-beyond-int-parsing"),
        pytest.param("(" * 101 + "V" + ")" * 101, 100, id="groups-nested-101-deep"),
    ])
    def test_positions(self, src, pos):
        with pytest.raises(DslParseError) as err:
            parse_map(src)
        assert err.value.position == pos

    def test_caret_rendering(self):
        with pytest.raises(DslParseError) as err:
            parse_map("V^^2")
        snippet = format_caret("V^^2", err.value)
        lines = snippet.splitlines()
        assert lines[0] == "V^^2"
        assert lines[1].startswith("  ^")

    def test_group_power_must_be_positive(self):
        with pytest.raises(DslParseError):
            parse_map("(V H)^0")

    def test_bad_profile_suffix(self):
        with pytest.raises(DslParseError):
            parse_map("V H @nope:file")


# DSL strings for the fuzz test: grammar-shaped expressions (numbers
# include zero denominators) mixed with junk over the token alphabet
_NUMBERS = st.one_of(
    st.integers(-99, 99).map(str),
    st.tuples(st.integers(-9, 9), st.integers(0, 9)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.tuples(st.integers(-9, 9), st.integers(0, 999)).map(lambda ab: f"{ab[0]}.{ab[1]}"),
)
_ATOMS = st.one_of(st.sampled_from(["V", "H"]),
                   st.tuples(_NUMBERS, _NUMBERS).map(lambda ab: f"T({ab[0]},{ab[1]})"))
_EXPRS = st.recursive(_ATOMS, lambda inner: st.one_of(
    st.tuples(inner, _NUMBERS).map(lambda e: f"{e[0]}^{e[1]}"),
    st.lists(inner, min_size=1, max_size=3).map(" ".join),
    inner.map(lambda e: f"({e})"),
), max_leaves=10)
_JUNK = st.text(alphabet="VHT^(),/.+-0123456789 ", max_size=30)
_DSL_STRINGS = st.one_of(_EXPRS, _JUNK, st.tuples(_EXPRS, _JUNK, _EXPRS).map("".join))


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_DSL_STRINGS)
    def test_expression_or_located_error(self, src):
        try:
            expr = parse_map(src)
        except DslParseError as err:
            assert 0 <= err.position <= len(src)
            return
        assert isinstance(expr, (VShear, HShear, Translate, Compose, Power))


class TestProfileSuffix:
    def test_pl_file(self, tmp_path):
        path = tmp_path / "tent.txt"
        path.write_text("0 0\n1/2 1\n1 0\n")
        e = parse_map(f"V^2 H^2 @pl:{path}")
        v = e.parts[0]
        assert isinstance(v.profile, PiecewiseLinearProfile)
        assert v.profile(0.25) == 0.5

    def test_default_profile_is_sinsq(self):
        e = parse_map("V")
        assert e.profile.kind == "sinsq"
