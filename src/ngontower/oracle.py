"""The exact oracle: each product identity checked at its conjugates modulo
primes l = 1 (mod n).

Every part of S is a Gauss period.  Let g be a primitive root mod n and
h = (n-1)/2, and number the pairs by their discrete log i mod h: pair i is
p_(g^i).  A part of s pairs is a coset of the subgroup of index D = h/s, so
its pairs share i mod D = r: it is the period (D, r), and the automorphism
sigma_t: z -> z^(g^t) sends it to (D, r + t).  Modulo a prime l = 1 (mod n)
with z_l of order n in F_l, pair i maps to ps[i] = z_l^(g^i) + z_l^-(g^i),
and the conjugate t of the period (D', r) to eta_D'[(r + t) mod D'], where
eta_D'[j] sums ps[i] over i = j (mod D').

`Oracle.check` tests a node's identity 2*L*R = c0 + sum c*X + sum d*Y^2
(its coefficients as they stand, counting halves) at the D conjugates
t = 0 .. D-1, D the largest index among its parts: every index divides h,
a power of two, so D is a multiple of them all.

Why it is exact.  delta = 2LR - E lies in the field K_D of degree D that
holds every part.  The n-1 maps Z[z] -> F_l, z -> z_l^j, are the sigma
followed by z -> z_l, so on delta they take only the D values checked (l
splits completely in Q(z); these are the D primes above l in K_D).  Write
delta = sum_k a_k z^k over k = 1 .. n-1 (1 = -sum z^k).  If every value is
0, so are the n-1 sums sum_k a_k z_l^(jk), whose matrix, a Vandermonde
matrix in distinct nodes times a diagonal, is invertible over F_l: l
divides every a_k.

The bound.  In this basis a constant c is -c on every z^k, and c*X is c on
the 2s distinct powers z^k of a part X of s pairs.  The coefficient of z^k
in X*Y counts the exponent pairs (a, b) with a + b = k, less those with
a + b = 0 (mod n); each a meets at most one b, so both counts lie in
0 .. 2 min(|X|, |Y|).  So every |a_k| <= B = 4 min(|L|, |R|) + |c0| +
sum |c| + 2 sum |d| |Y|, sizes in pairs.  The check runs modulo the largest
primes l = 1 (mod n) below 2^31 until their product exceeds B, which then
divides each a_k: all are 0.  Real towers have B below 10^5: one prime.

The oracle reads only the table's parameters, `part_pairs`, the node's
parts and its expression, and keeps its tables for one pass (`Oracle`).
"""

from typing import NamedTuple

import numpy as np

from .errors import VerificationError
from .splitting import part_pairs


class OracleMismatch(VerificationError):
    """A product expression is not exactly equal to the product it stands for."""


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, bases 2, 3, 5 and 7: exact below 3.2e9."""
    bases = (2, 3, 5, 7)
    if m < 2 or any(m % p == 0 for p in bases):
        return m in bases
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, m)
        if x != 1 and all(pow(x, 1 << j, m) != m - 1 for j in range(s)):
            return False
    return True


def _primes(n: int):
    """The primes l = 1 (mod n) below 2^31, largest first."""
    top = (2**31 - 2) // (2 * n) * (2 * n) + 1
    return (ell for ell in range(top, 1, -2 * n) if _is_prime(ell))


def _powers(base: int, count: int, mod: int) -> np.ndarray:
    """base^0 .. base^(count-1) modulo mod, as int64."""
    powers = [1] * count
    for i in range(1, count):
        powers[i] = powers[i - 1] * base % mod
    return np.array(powers, dtype=np.int64)


class _Field:
    """The images of every period modulo one prime: `eta[D]` holds eta_D
    twice over, so eta[D][r : r + D] lists the period (D, r) at the
    conjugates t = 0 .. D-1."""

    def __init__(self, ell: int, n: int, elements: np.ndarray):
        self.prime = ell
        a = 2
        while pow(a, (ell - 1) // n, ell) == 1:
            a += 1
        zpow = _powers(pow(a, (ell - 1) // n, ell), n, ell)
        eta = (zpow[elements] + zpow[n - elements]) % ell
        self.eta = {eta.size: np.concatenate((eta, eta))}
        while eta.size > 1:
            eta = (eta[: eta.size // 2] + eta[eta.size // 2 :]) % ell
            self.eta[eta.size] = np.concatenate((eta, eta))


class PeriodValues(NamedTuple):
    """A number modulo one prime as its values at conjugates, each in
    0 .. prime-1: its coordinates in F_l^D, into which K_D splits."""

    coeffs: np.ndarray
    prime: int


def pv_of_part(oracle: "Oracle", part, field: _Field, index: int | None = None) -> PeriodValues:
    """A part placed by `oracle` at the conjugates t = 0 .. index-1: of its
    own index D when None, else of a multiple of D, over which they repeat."""
    d, r = oracle.places[part]
    values = field.eta[d][r : r + d]
    return PeriodValues(values if index is None else np.tile(values, index // d), field.prime)


def pv_mul(a: PeriodValues, b: PeriodValues) -> PeriodValues:
    """a * b, conjugate by conjugate."""
    return PeriodValues(a.coeffs * b.coeffs % a.prime, a.prime)


class Oracle:
    """One pass of exact checks over one table: the place (D, r) of each
    part met, and the periods modulo each prime the pass has needed."""

    def __init__(self, table):
        self.table = table
        n, h = table.params.n, table.params.npairs
        # n - 1 is a power of two, so every non-residue is a primitive root.
        g = next(g for g in range(2, n) if pow(g, h, n) == n - 1)
        self.elements = _powers(g, h, n)  # element g^i of pair i
        self.logs = np.empty(h + 1, dtype=np.int64)  # pair number -> i
        self.logs[np.minimum(self.elements, n - self.elements)] = np.arange(h)
        self.places: dict = {}
        self.fields: list[_Field] = []
        self._primes = _primes(n)

    def place(self, part) -> tuple[int, int] | None:
        """(D, r) when the part's pairs are exactly the coset of index D
        holding pair r, else None.  Checked once per part and pass."""
        if part not in self.places:
            h = self.table.params.npairs
            logs = self.logs[part_pairs(part, self.table)]
            index = h // logs.size if logs.size and h % logs.size == 0 else 0
            coset = index and (logs % index == logs[0] % index).all()
            exact = coset and np.bincount(logs // index).max() == 1  # no pair twice
            self.places[part] = (index, int(logs[0]) % index) if exact else None
        return self.places[part]

    def fields_for(self, bound: int) -> list[_Field]:
        """The fields of the largest primes l = 1 (mod n) whose product
        exceeds `bound`."""
        product, count = 1, 0
        while product <= bound:
            if count == len(self.fields):
                self.fields.append(_Field(next(self._primes), self.table.params.n, self.elements))
            product *= self.fields[count].prime
            count += 1
        return self.fields[:count]

    def expression_bound(self, combo) -> int:
        """|c0| + sum |c| + 2 sum |d| |Y|: no coefficient of c0 + sum c*X +
        sum d*Y^2 in the basis z^1 .. z^(n-1) is larger."""
        h = self.table.params.npairs
        squares = sum(abs(d) * h // self.places[p][0] for d, p in combo.squares)
        return abs(combo.constant) + sum(abs(c) for c, _ in combo.linear) + 2 * squares

    def expression_image(self, combo, index: int, field: _Field) -> np.ndarray:
        """c0 + sum c*X + sum d*Y^2 at the conjugates t = 0 .. index-1.
        Terms of one index are summed at that length, reduced after each
        product so every intermediate stays below 2^62; each sum then adds
        to every block of the result, viewed as (index / D', D')."""
        ell = field.prime
        sums: dict[int, np.ndarray] = {}
        for terms, squared in ((combo.linear, False), (combo.squares, True)):
            for c, part in terms:
                y = pv_of_part(self, part, field)
                y = (pv_mul(y, y) if squared else y).coeffs
                acc = sums.get(y.size)
                if acc is None:
                    acc = sums[y.size] = np.zeros(y.size, dtype=np.int64)
                acc += c % ell * y
                acc %= ell
        out = np.full(index, combo.constant % ell, dtype=np.int64)
        for d, acc in sums.items():
            out.reshape(-1, d)[...] += acc
        return out % ell

    def check(self, node) -> None:
        """Raise OracleMismatch unless 2 * left * right equals the node's
        product expression exactly (see the module docstring)."""
        combo, left, right = node.product_expr, node.left, node.right
        parts = [left, right, *combo.referenced_parts()]
        for part in parts:
            if self.place(part) is None:
                raise OracleMismatch(
                    f"{part.label(self.table)} is not a Gauss period: its pairs are "
                    "not one coset of the pair group", node.id
                )
        index = max(self.places[part][0] for part in parts)
        smaller = self.table.params.npairs // max(self.places[left][0], self.places[right][0])
        bound = 4 * smaller + self.expression_bound(combo)
        for field in self.fields_for(bound):
            ell = field.prime
            sides = pv_of_part(self, left, field, index), pv_of_part(self, right, field, index)
            lhs = 2 * pv_mul(*sides).coeffs % ell
            rhs = self.expression_image(combo, index, field)
            if not np.array_equal(lhs, rhs):
                raise OracleMismatch(
                    f"product of {left.label(self.table)} and {right.label(self.table)} "
                    f"differs from its expression at {int((lhs != rhs).sum())} of {index} "
                    f"conjugates modulo {ell}",
                    node.id,
                )
