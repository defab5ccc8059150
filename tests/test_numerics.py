import ast
import importlib
import math
import pathlib
import sys

import pytest
from hypothesis import given, strategies as st

import thabound
from thabound.attacks import no_attack
from thabound.channel import single_photon
from thabound.keyrate import RatePoint
from thabound.numerics import (
    Record,
    binary_entropy,
    db_from_linear,
    linear_from_db,
    nonnegative,
    nonpositive_db,
    positive,
    probability,
)


class TestBinaryEntropy:
    def test_endpoints_exact(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_is_one_bit(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, rel=1e-15)

    def test_frozen_values(self):
        # independently computed at 40-digit precision
        assert binary_entropy(0.11) == pytest.approx(0.499915958165, rel=1e-11)
        assert binary_entropy(0.01) == pytest.approx(0.0807931358959, rel=1e-11)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetric(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p),
                                                  abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_bounded(self, p):
        assert 0.0 <= binary_entropy(p) <= 1.0 + 1e-15

    def test_monotone_on_lower_half(self):
        grid = [i / 200 for i in range(101)]
        values = [binary_entropy(p) for p in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_far_out_of_range_raises(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestProbabilityClamp:
    def test_passthrough(self):
        assert probability("p", 0.3) is None

    def test_rejects_beyond_guard(self):
        for value in (-1e-9, 1.0 + 1e-9, -1e-13, 1.0 + 1e-13):
            with pytest.raises(ValueError, match="^p must be a probability"):
                probability("p", value)


TINY = math.ulp(0.0)
BIG = sys.float_info.max


# Per check: its message, the values at and just inside each end of its
# range, and the nearest floats outside it.  An open end at +-inf is
# approached by the largest finite float.
@pytest.mark.parametrize("check, message, accepted, rejected", [
    pytest.param(probability, "must be a probability in [0, 1]",
                 (0.0, TINY, math.nextafter(1.0, 0.0), 1.0),
                 (-TINY, math.nextafter(1.0, 2.0)), id="probability"),
    pytest.param(positive, "must be finite and > 0",
                 (TINY, math.nextafter(BIG, 0.0), BIG), (0.0, -TINY),
                 id="positive"),
    pytest.param(nonnegative, "must be finite and >= 0",
                 (0.0, TINY, math.nextafter(BIG, 0.0), BIG), (-TINY,),
                 id="nonnegative"),
    pytest.param(nonpositive_db, "must be finite and <= 0 dB",
                 (-BIG, math.nextafter(-BIG, 0.0), -TINY, 0.0), (TINY,),
                 id="nonpositive_db"),
])
def test_range_check_ends(check, message, accepted, rejected):
    for value in accepted:
        check("some_field", value)
    for value in (*rejected, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as err:
            check("some_field", value)
        assert str(err.value) == f"some_field {message}, got {value!r}"


# The hand-written rules that still test finiteness, each a compound rule
# no single range check expresses: (module, enclosing function).
HAND_WRITTEN_RULES = {
    ("budget.py", "mu_out_bound"),  # the isolation is any finite dB
    ("budget.py", "plan_budget"),  # the isolation target is any finite dB
    ("channel.py", "ChannelParams.__post_init__"),  # f_ec in [1, inf)
    ("characterize.py", "reflectivity_bound"),  # d_min <= d_max, both finite
    ("keyrate.py", "sweep_lengths"),  # l_min < l_max, both finite
}


def _is_math(node: ast.AST, attr: str) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "math")


def _finiteness_tests(tree: ast.AST) -> set[str]:
    """Functions that compare against math.inf or call math.isfinite."""
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = (*scope, node.name)
        if (isinstance(node, ast.Compare)
                and any(_is_math(operand, "inf")
                        for operand in (node.left, *node.comparators))
                or isinstance(node, ast.Call) and _is_math(node.func, "isfinite")):
            found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_range_rules_have_one_owner():
    # A new range rule goes through the checks in numerics, whose single
    # comparison NaN fails; a hand-written one has let NaN through before.
    package = pathlib.Path(thabound.__file__).parent
    found = {(path.name, function)
             for path in sorted(package.glob("*.py"))
             if path.name != "numerics.py"
             for function in _finiteness_tests(ast.parse(path.read_text()))}
    assert found == HAND_WRITTEN_RULES


def _package_records() -> list[type]:
    """Every tuple subclass in the package that defines __post_init__."""
    package = pathlib.Path(thabound.__file__).parent
    records = []
    for path in sorted(package.glob("*.py")):
        name = "thabound" if path.stem == "__init__" else f"thabound.{path.stem}"
        module = importlib.import_module(name)
        records += [value for value in vars(module).values()
                    if isinstance(value, type) and issubclass(value, tuple)
                    and value.__module__ == name and "__post_init__" in vars(value)]
    return records


RECORDS = _package_records()
_CHANNEL = (0.2, 0.125, 0.01, 1e-5, 1.2)
# Per record: valid field values, then a field and a value its rule rejects.
RECORD_SAMPLES = {
    "AttackModel": (("general", 1e-6), "mu_out", -1.0),
    "ChannelParams": (_CHANNEL, "f_ec", 0.5),
    "ComponentCatalog": (((-50.0,), (-40.0,), (0.0,)), "filter_db_values", ()),
    "IsolationBudget": ((0.0, -50.0, 1, 0.0, -40.0), "isolator_count", 2.5),
    "LidtSpec": ((4.3e23, 1e-4, 1.55e-6), "photon_flux", 0.0),
    "LinkObservables": ((0.1, 0.02, 0.1, 0.02, 0.1), "e_x", 1.5),
    "RateQuery": ((_CHANNEL, single_photon(), no_attack(), 10.0), "length_km", -1.0),
    "RateSeries": (((RatePoint(0.0, 0.1, True), RatePoint(1.0, 0.05, True)),),
                   "points", (RatePoint(1.0, 0.1, True), RatePoint(0.0, 0.05, True))),
    "ReflectionPeak": ((1.2, -46.0, "short_arm"), "reflectivity_db", 3.0),
    "SourceModel": (("decoy", 0.5), "s", 0.0),
}


def test_every_record_has_a_sample():
    assert sorted(cls.__name__ for cls in RECORDS) == sorted(RECORD_SAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    # The stock namedtuple _make, which _replace uses, skips __new__ and so
    # the record's rules; Record's does not.
    values, field, rejected = RECORD_SAMPLES[cls.__name__]
    record = cls(*values)
    assert issubclass(cls, Record)
    assert "_make" not in vars(cls)
    assert not hasattr(record, "__dict__")
    assert cls._make(values) == record
    with pytest.raises(ValueError):
        record._replace(**{field: rejected})
    bad = list(values)
    bad[cls._fields.index(field)] = rejected
    with pytest.raises(ValueError):
        cls._make(bad)


class TestDecibels:
    def test_frozen_half(self):
        assert db_from_linear(0.5) == pytest.approx(-3.01029995664, rel=1e-11)

    def test_unity_is_zero(self):
        assert db_from_linear(1.0) == 0.0
        assert linear_from_db(0.0) == 1.0

    def test_known_decades(self):
        assert db_from_linear(10.0) == pytest.approx(10.0, rel=1e-15)
        assert linear_from_db(-30.0) == pytest.approx(1e-3, rel=1e-12)

    @given(st.floats(min_value=1e-30, max_value=1e6))
    def test_round_trip(self, x):
        assert linear_from_db(db_from_linear(x)) == pytest.approx(x, rel=1e-12)

    def test_nonpositive_raises(self):
        for x in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError) as err:
                db_from_linear(x)
            assert str(err.value) == f"x must be finite and > 0, got {x!r}"

    def test_additive_in_linear_products(self):
        assert db_from_linear(0.25 * 0.5) == pytest.approx(
            db_from_linear(0.25) + db_from_linear(0.5), abs=1e-12)
