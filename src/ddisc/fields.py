"""Coefficient fields for representation matrices.

Scalars are plain Python numbers: ``Fraction``/``int`` over the rationals,
canonical residues in ``[0, p)`` over a prime field.  Ring arithmetic on
scalars is ordinary ``+``/``*`` followed by :meth:`Field.reduce`; only the
linear algebra kernels need to know the field beyond that.
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

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("ddisc.QQ")


# The first 13 primes.  As Miller-Rabin witnesses they decide primality
# exactly below 3,317,044,064,679,887,385,961,981 (about 3.3e24), the
# smallest composite that all of them pass.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin over the first 13 prime bases.

    Exact for n < 3.3e24.  Beyond that bound some composites pass every
    base and would be accepted as prime.
    """
    if n < 2:
        return False
    for b in _WITNESSES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _WITNESSES:
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
        return x % self.p == 0

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("ddisc.GF", self.p))


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)
