"""Coefficient fields for representation matrices.

Scalars are plain Python numbers: ``Fraction``/``int`` over the rationals,
canonical residues in ``[0, p)`` over a prime field.  Ring arithmetic on
scalars is ordinary ``+``/``*`` followed by :meth:`Field.reduce`; the
linear algebra kernels also take a nonzero scalar's :meth:`Field.inverse`.
"""

from __future__ import annotations

from fractions import Fraction


class RationalField:
    """The field of rational numbers."""

    p = None
    name = "QQ"

    def coerce(self, x):
        return Fraction(x)

    def reduce(self, x):
        return x

    def is_zero(self, x):
        return x == 0

    def inverse(self, x):
        return 1 / x

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("ddisc.QQ")


# The first 13 primes, and for each k the bound psi_k (OEIS A014233) below
# which the first k of them, as Miller-Rabin witnesses, decide primality
# exactly: psi_k is the smallest composite that all k pass.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_BOUNDS = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def _is_prime(n: int) -> bool:
    """Miller-Rabin over the first k prime bases, for the least k with
    n < psi_k, which makes the answer exact: 2 bases for n < 1,373,653.

    Raises ``ValueError`` for n >= psi_13 (about 3.3e24), where some
    composites pass all 13 bases.
    """
    if n < 2:
        return False
    for k, bound in enumerate(_BOUNDS, 1):
        if n < bound:
            break
    else:
        raise ValueError(f"{n}: primality is not decided at or above {_BOUNDS[-1]}")
    bases = _WITNESSES[:k]
    for b in bases:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in bases:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field with ``p`` elements, ``p`` a prime."""

    def __init__(self, p: int):
        if type(p) is not int:
            raise TypeError(f"p must be an int, got {p!r}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def coerce(self, x):
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        return int(x) % self.p

    def reduce(self, x):
        return x % self.p

    def is_zero(self, x):
        return self.coerce(x) == 0

    def inverse(self, x):
        return pow(x, -1, self.p)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("ddisc.GF", self.p))


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)
