"""Truncated power series and marker polynomials over exact rationals.

A series is a dense tuple of Fraction coefficients for z^0 .. z^N.  All
algorithms are the classical degree-by-degree recurrences, so every stored
coefficient is the true coefficient of the underlying formal series:
truncation only cuts, it never perturbs.  Reading past the truncation order
is an error rather than a silent zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Q = Fraction
Scalar = Union[int, Fraction]


def _to_fraction_tuple(values: Iterable[Scalar]) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


class _Immutable:
    """Base of the slotted value classes, one value per slot.

    The constructor takes one positional value per slot, in slot order, and
    fills the slots through their descriptors; after that, assigning or
    deleting any attribute raises.  Pickle and copy rebuild through the
    constructor, a value equals only a value of its own class with equal
    slots, and the hash and repr are those of the slot values."""

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        slots = self.__slots__
        if len(values) != len(slots):
            raise TypeError(f"{type(self).__name__} takes one value per slot "
                            f"{slots}, got {len(values)}")
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name}")


class RationalSeries(_Immutable):
    """Polynomial truncation of a formal power series, exact coefficients.

    Immutable: assigning or deleting a field raises.  Not a tuple: equal
    only to a RationalSeries with equal coefficients, never to a UPoly or a
    tuple, and it has no len and no repetition by an int."""

    __slots__ = ("coeffs",)

    @staticmethod
    def from_coeffs(values: Iterable[Scalar]) -> "RationalSeries":
        coeffs = _to_fraction_tuple(values)
        if not coeffs:
            raise ValueError("a series needs at least the z^0 coefficient")
        return RationalSeries(coeffs)

    @staticmethod
    def zero(order: int) -> "RationalSeries":
        return RationalSeries((Q(0),) * (order + 1))

    @staticmethod
    def one(order: int) -> "RationalSeries":
        return RationalSeries((Q(1),) + (Q(0),) * order)

    @staticmethod
    def identity(order: int) -> "RationalSeries":
        """The series z."""
        if order < 1:
            raise ValueError("identity needs order >= 1")
        return RationalSeries((Q(0), Q(1)) + (Q(0),) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient z^{n} outside truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "RationalSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return RationalSeries(self.coeffs[: order + 1])

    def _common_order(self, other: "RationalSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        n = self._common_order(other)
        return RationalSeries(tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __sub__(self, other: "RationalSeries") -> "RationalSeries":
        n = self._common_order(other)
        return RationalSeries(tuple(self.coeffs[k] - other.coeffs[k] for k in range(n + 1)))

    def __neg__(self) -> "RationalSeries":
        return RationalSeries(tuple(-c for c in self.coeffs))

    def scale(self, factor: Scalar) -> "RationalSeries":
        f = Q(factor)
        return RationalSeries(tuple(f * c for c in self.coeffs))

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        n = self._common_order(other)
        a, b = self.coeffs, other.coeffs
        out = []
        for m in range(n + 1):
            acc = Q(0)
            for k in range(m + 1):
                if a[k] and b[m - k]:
                    acc += a[k] * b[m - k]
            out.append(acc)
        return RationalSeries(tuple(out))

    def shift(self, powers: int) -> "RationalSeries":
        """Multiply by z^powers, keeping the truncation order."""
        if powers < 0:
            raise ValueError("shift by a negative power is not supported")
        n = self.order
        return RationalSeries((Q(0),) * min(powers, n + 1) + self.coeffs[: n + 1 - powers])

    def stretch(self, i: int) -> "RationalSeries":
        """The substitution z -> z^i, truncated at the original order."""
        if i < 1:
            raise ValueError("stretch needs i >= 1")
        out = [Q(0)] * (self.order + 1)
        for k, c in enumerate(self.coeffs):
            if k * i > self.order:
                break
            out[k * i] = c
        return RationalSeries(tuple(out))

    def reciprocal(self) -> "RationalSeries":
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("reciprocal needs a nonzero constant term")
        a = self.coeffs
        inv0 = 1 / a[0]
        out = [inv0]
        for m in range(1, self.order + 1):
            acc = Q(0)
            for k in range(1, m + 1):
                if a[k] and out[m - k]:
                    acc += a[k] * out[m - k]
            out.append(-acc * inv0)
        return RationalSeries(tuple(out))

    def divide(self, other: "RationalSeries") -> "RationalSeries":
        n = self._common_order(other)
        return self.truncate(n) * other.truncate(n).reciprocal()

    def exp(self) -> "RationalSeries":
        """exp of a series with zero constant term: (exp A)' = A' exp A gives
        m e_m = sum_k k a_k e_(m-k)."""
        a = self.coeffs
        if a[0] != 0:
            raise ValueError("exp needs a zero constant term")
        out = [Q(1)]
        for m in range(1, self.order + 1):
            acc = Q(0)
            for k in range(1, m + 1):
                if a[k] and out[m - k]:
                    acc += k * a[k] * out[m - k]
            out.append(acc / m)
        return RationalSeries(tuple(out))

    def compose(self, inner: "RationalSeries") -> "RationalSeries":
        """self(inner(z)); inner must have zero constant term."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs the inner constant term to vanish")
        n = self._common_order(inner)
        inner = inner.truncate(n)
        result = RationalSeries.zero(n)
        # Horner over the outer coefficients, highest first.
        for k in range(n, -1, -1):
            result = result * inner
            if self.coeffs[k]:
                result = result + RationalSeries((self.coeffs[k],) + (Q(0),) * n)
        return result

    def reversion(self) -> "RationalSeries":
        """Compositional inverse S with self(S(z)) = z, by Lagrange inversion."""
        a = self.coeffs
        if a[0] != 0 or a[1] == 0:
            raise ValueError("reversion needs a(0) = 0 and a'(0) != 0")
        n = self.order
        # w = z / a(z) has a nonzero constant term; [z^m] S = [z^{m-1}] w^m / m.
        w = RationalSeries(a[1:]).reciprocal()  # order n-1 is enough
        out = [Q(0)] * (n + 1)
        power = RationalSeries.one(n - 1)
        for m in range(1, n + 1):
            power = power * w
            out[m] = power[m - 1] / m
        return RationalSeries(tuple(out))

    def derivative(self) -> "RationalSeries":
        if self.order == 0:
            return RationalSeries((Q(0),))
        return RationalSeries(tuple(k * self.coeffs[k] for k in range(1, self.order + 1)))

    def eval_float(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def eval_fraction(self, x: Scalar) -> Fraction:
        xq = Q(x)
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * xq + c
        return acc

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)



class UPoly(_Immutable):
    """Polynomial in a marker variable, exact coefficients, index = power.

    Immutable and not a tuple, like RationalSeries; coeffs has its
    trailing zeros stripped, and () is the zero polynomial."""

    __slots__ = ("coeffs",)

    @staticmethod
    def from_coeffs(values: Iterable[Scalar]) -> "UPoly":
        return UPoly._trimmed(list(_to_fraction_tuple(values)))

    @staticmethod
    def _trimmed(coeffs: list[Fraction]) -> "UPoly":
        """The polynomial of Fraction coefficients, trailing zeros stripped."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return UPoly(tuple(coeffs))

    @staticmethod
    def zero() -> "UPoly":
        return UPoly(())

    @staticmethod
    def constant(c: Scalar) -> "UPoly":
        return UPoly.from_coeffs([c])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Q(0)

    # sums, differences and products of Fraction coefficients are Fractions,
    # so the operators strip trailing zeros without wrapping them again

    def __add__(self, other: "UPoly") -> "UPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly._trimmed(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    def __sub__(self, other: "UPoly") -> "UPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly._trimmed(
            [self.coefficient(k) - other.coefficient(k) for k in range(n)]
        )

    def __mul__(self, other: "UPoly") -> "UPoly":
        if not self.coeffs or not other.coeffs:
            return UPoly.zero()
        out = [Q(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return UPoly._trimmed(out)

    def scale(self, factor: Scalar) -> "UPoly":
        f = Q(factor)
        if f == 0:
            return UPoly.zero()
        return UPoly(tuple(f * c for c in self.coeffs))

    def shift_marker(self, k: int) -> "UPoly":
        """Multiply by marker^k."""
        if not self.coeffs:
            return self
        return UPoly((Q(0),) * k + self.coeffs)

    def eval(self, v: Scalar) -> Fraction:
        if v == 1:  # the coefficient sum, without Horner's products by 1
            return sum(self.coeffs, Q(0))
        vq = Q(v)
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * vq + c
        return acc

    def derivative(self) -> "UPoly":
        if len(self.coeffs) <= 1:
            return UPoly.zero()
        return UPoly(tuple(k * self.coeffs[k] for k in range(1, len(self.coeffs))))

    def is_zero(self) -> bool:
        return not self.coeffs



class BivariateSeries(_Immutable):
    """Series in z whose z^n coefficient is a UPoly in the marker.

    Immutable and not a tuple, like RationalSeries."""

    __slots__ = ("rows",)

    @property
    def order(self) -> int:
        return len(self.rows) - 1

    def row(self, n: int) -> UPoly:
        if not 0 <= n <= self.order:
            raise IndexError(f"row z^{n} outside truncation order {self.order}")
        return self.rows[n]

    def row_sum(self, n: int) -> Fraction:
        """The marker-erased coefficient, i.e. the row evaluated at 1."""
        return self.row(n).eval(1)

    def marked_mean_series(self) -> RationalSeries:
        """Row-wise d/d(marker) at marker = 1, as a univariate series."""
        return RationalSeries(tuple(r.derivative().eval(1) for r in self.rows))

    def at_marker_one(self) -> RationalSeries:
        return RationalSeries(tuple(r.eval(1) for r in self.rows))

    def exp(self) -> "BivariateSeries":
        """exp in the z-direction; the z^0 row must be the zero polynomial."""
        if not self.rows[0].is_zero():
            raise ValueError("exp needs a zero z^0 row")
        out = [UPoly.constant(1)]
        for m in range(1, self.order + 1):
            acc = UPoly.zero()
            for k in range(1, m + 1):
                ak = self.rows[k]
                if ak.is_zero() or out[m - k].is_zero():
                    continue
                acc = acc + (ak * out[m - k]).scale(k)
            out.append(acc.scale(Q(1, m)))
        return BivariateSeries(tuple(out))

