"""F_q(t) scalars for the tests, from integer coefficient sequences.  The
file is not named test_*, so pytest does not collect it."""

from kmtop.valued import ValuedScalar


def fq_ratio(field, num, den=(1,)):
    """The F_q(t) scalar num/den of integer coefficient sequences, low to
    high: each coefficient reduced mod q, then canonicalized."""
    q = field.char
    return ValuedScalar(field, field._canonical([c % q for c in num], [c % q for c in den]))
