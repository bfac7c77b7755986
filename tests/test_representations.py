"""The three representations compare equal exactly when every field does.

Two built from equal fields are equal and hash alike; one field changed,
or the same fields in another representation type, make them unequal.
"""

from fractions import Fraction

from beliefkit import Belief, HTRepresentation, LPSRepresentation, OSRepresentation, StateSpace


def assert_equal_exactly_when_every_field_is(build, changed):
    one, two = build(), build()
    assert one is not two and one == two and hash(one) == hash(two)
    for other in changed:
        assert one != other and other != one


def test_each_representation_compares_every_field():
    space = StateSpace(("a", "b"))
    half = Belief(space, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    b = Belief(space, {"b": 1})

    assert_equal_exactly_when_every_field_is(
        lambda: OSRepresentation(space, (half, b)),
        [OSRepresentation(space, (b, half)), LPSRepresentation(space, (half, b))],
    )
    assert_equal_exactly_when_every_field_is(
        lambda: LPSRepresentation(space, (half, b)),
        [LPSRepresentation(space, (half,)), OSRepresentation(space, (half, b))],
    )
    assert_equal_exactly_when_every_field_is(
        lambda: HTRepresentation(space, (half, b), (Fraction(2, 3), Fraction(1, 3))),
        [
            HTRepresentation(space, (half, b), (Fraction(3, 4), Fraction(1, 4))),
            HTRepresentation(space, (half, b), (Fraction(2, 3), Fraction(1, 3)), Fraction(1, 4)),
            OSRepresentation(space, (half, b)),
        ],
    )
