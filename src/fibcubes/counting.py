"""Exact counting of independent sets of path and cycle powers.

Everything here is closed-form or recurrence-based integer arithmetic; the
brute-force enumeration lives in :mod:`fibcubes.enumeration` so the two can
cross-check each other.

Conventions used throughout:

* A "gap" parameter h >= 0 means vertices at (circular) index distance <= h
  are adjacent, so 1-bits of an independent-set string are more than h apart.
* Binomial coefficients follow the subset-counting convention: C(m, 0) = 1
  for every m (including negative m), and C(m, k) = 0 whenever k < 0, or
  m < 0 < k, or k > m.  This is exactly what makes the closed forms vanish
  outside their support.
* Every per-cell function returns a Python int, so nothing ever
  overflows.  :class:`HSequence` and the rows of the totals and edge counts
  (``path_count_row``, ``cycle_count_row``, ``path_edges_row``,
  ``cycle_edges_row``) may instead run over exact ``decimal.Decimal``:
  given ``Decimal(1)`` as their private unit, they multiply every seed, and
  the jumps below every power of x, by it.  That is exact integer
  arithmetic only under a context that raises on any rounding, which the
  caller sets up (``fibcubes.cli`` does for large output, since a Decimal
  converts to decimal text in time linear in its digits and an int in
  quadratic time).  The per-size rows and the closed forms stay on int.
* The closed-form totals and edge sums walk consecutive binomials along a
  diagonal, C(m, k) -> C(m-h, k+1), each from the one before by one
  multiply and one exact divide, so a total costs one big-integer step per
  subset size rather than a fresh ``math.comb``.  The step from size k
  multiplies and divides falling factorials of min(k, h) + 1 factors, so
  a huge h with few sizes (``path_count(1, 10**9)``) stays cheap.  The
  per-size functions ``path_count_k`` and ``cycle_count_k`` still go
  through :func:`binom`, and each total checks its first size past the
  bound with them.
* Every sequence here obeys one delayed recurrence t(n) = t(n-1) + t(n-h-1)
  and differs only in its seeds; :class:`HSequence` is its one
  implementation.  Its six kinds are the delayed Fibonacci and Lucas
  sequences, both also extended down to index -h, and the path and cycle
  totals (p(n) = n+1 for n <= h, c(n) = n+1 for n <= 2h+1) that give the
  recurrence route independently of the closed forms.  A sequence keeps no
  memo: every use runs the recurrence from the seeds with a window of at
  most h+1 terms, so memory stays flat in n.  A single term far past the
  seeds is instead reached by Fiduccia's jump (C. M. Fiduccia, SIAM J.
  Comput. 14 (1985)): x^m mod P(x) = x^(h+1) - x^h - 1 by square and
  multiply, applied to the last h+1 seeds, in O(h^2 log n) products, taken
  where a measured cost estimate (:func:`_jump_pays`) says it beats
  iterating.  Rows and prefixes keep streaming.
* A convolution a * b of two such sequences is beta * (A / Q): b's short
  numerator beta, taken from b's seeds, applied to the stream U = A / Q,
  which obeys the same delayed recurrence driven by a.  One private
  generator streams u(1), u(2), ... at three big-integer additions per
  index and keeps at most h+1 of its values; :func:`convolve` applies beta
  once, to the last few, and a row applies it at each index.  A single
  convolution far enough out (:func:`_conv_jump_pays`) is reached by the
  same jump instead, under the modulus P(x)^2, as a * b obeys P(E)^2 g = 0
  past its first few terms; the jump's modulus is one argument, the taps
  of P^power (:func:`_modulus`), so both jumps share one implementation.
* The row functions (``path_count_row``, ``cycle_count_row``,
  ``path_edges_row``, ``cycle_edges_row``) give one quantity for
  n = 0..n_max in one linear pass, which is what a table row needs: the
  totals are prefixes of the path- and cycle-total sequences, path edges
  the prefix of the streamed F * F convolution, and cycle edges n * F(n-h)
  read off F as it streams.  The per-size rows, streamed for k = 0, 1, ...,
  are made by addition alone (:func:`path_count_k_rows`).  The per-cell
  functions stay the closed forms that the rows are checked against.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from functools import reduce
from itertools import accumulate, chain, count, islice, repeat
from operator import add, mul

__all__ = [
    "binom",
    "path_count_k",
    "path_count",
    "path_count_rec",
    "cycle_count_k",
    "cycle_count",
    "cycle_count_rec",
    "HSequence",
    "FIBONACCI",
    "LUCAS",
    "EXTENDED_FIBONACCI",
    "EXTENDED_LUCAS",
    "h_fibonacci",
    "h_lucas",
    "extended_fib",
    "extended_lucas",
    "convolve",
    "path_edges",
    "path_edges_conv",
    "cycle_edges",
    "cycle_edges_closed",
    "cycle_edges_conv",
    "path_count_row",
    "cycle_count_row",
    "path_edges_row",
    "cycle_edges_row",
    "path_count_k_rows",
    "cycle_count_k_rows",
    "t_count",
    "max_subset_size",
]


def binom(m: int, k: int) -> int:
    """Number of k-subsets of an m-set (0 when the selection is impossible).

    Unlike the signed generalized binomial, C(-1, 1) is 0 here, not -1: a
    negative-size set has no nonempty subsets, but it does have the empty one.
    """
    if k < 0:
        return 0
    if k == 0:
        return 1
    if m < 0 or k > m:
        return 0
    return math.comb(m, k)


def _require_gap(h: int) -> None:
    if h < 0:
        raise ValueError(f"h must be nonnegative, got h={h}")


def max_subset_size(n: int, h: int) -> int:
    """Largest k for which a power-of-path/cycle on n vertices can have an
    independent k-subset: ceil(n / (h+1))."""
    _require_gap(h)
    return -(-n // (h + 1))


def _diagonal_binomials(m: int, h: int, last: int) -> Iterator[int]:
    """Yield C(m - h*k, k) for k = 0..last.

    Each term comes from the one before by one multiply and one exact
    divide by a ratio of falling factorials with min(k, h) + 1 factors:

        C(m-h, k+1) / C(m, k) = (m-k)...(m-k-h) / ((k+1) * m...(m-h+1))
                              = (m-h)...(m-h-k) / ((k+1) * m...(m-k+1)),

    the second form while k < h, so a large h with few subset sizes costs
    little.  Callers keep ``last`` within the support, where m - h*k - k > h
    before every step, so every factor is positive.
    """
    b = 1
    yield b
    for k in range(last):
        if k < h:
            b = b * math.perm(m - h, k + 1) // ((k + 1) * math.perm(m, k))
        else:
            b = b * math.perm(m - k, h + 1) // ((k + 1) * math.perm(m, h))
        m -= h
        yield b


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def path_count_k(n: int, h: int, k: int) -> int:
    """Number of independent k-subsets of the h-power of the n-path.

    Closed form C(n - h*k + h, k): placing k chosen vertices with gaps > h is
    the same as choosing k items from n - h*(k-1) slots.  A negative n is
    allowed and follows the binomial convention (the empty set only).
    """
    _require_gap(h)
    return binom(n - h * k + h, k)


def _require_nonnegative(n: int, h: int) -> None:
    if n < 0 or h < 0:
        raise ValueError(f"n and h must be nonnegative, got n={n} h={h}")


def path_count(n: int, h: int) -> int:
    """Total number of independent sets of the h-power of the n-path."""
    _require_nonnegative(n, h)
    bound = max_subset_size(n, h)
    total = sum(_diagonal_binomials(n + h, h, bound))
    # Terms past the structural bound must vanish; a nonzero one means the
    # binomial convention is broken.
    if path_count_k(n, h, bound + 1) != 0:
        raise ArithmeticError(f"nonzero path count past the size bound: n={n} h={h}")
    return total


def path_count_rec(n: int, h: int) -> int:
    """path_count via its recurrence p(n) = p(n-1) + p(n-h-1), p(n) = n+1 for
    n <= h.  Independent route from the closed form, kept for cross-checks.
    """
    return HSequence(_PATH_TOTALS, h).term(n)


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------

def cycle_count_k(n: int, h: int, k: int) -> int:
    """Number of independent k-subsets of the h-power of the n-cycle.

    For k >= 1 this is (n/k) * C(n - h*k - 1, k - 1); the division is exact
    because the formula counts each subset once per element before dividing.
    """
    _require_nonnegative(n, h)
    if k < 0:
        return 0
    if k == 0:
        return 1
    return next(_cycle_shares(h, [n], [k], [binom(n - h * k - 1, k - 1)]))


def _cycle_shares(h: int, ns, ks, bs) -> Iterator[int]:
    # n * b / k for n, k, b taken in step, b = C(n - h*k - 1, k - 1): each
    # k-subset is counted once per element, so every division is exact
    # unless the arithmetic is broken.
    for n, k, b in zip(ns, ks, bs):
        share, rest = divmod(n * b, k)
        if rest:
            raise ArithmeticError(f"inexact division for cycle count n={n} h={h} k={k}")
        yield share


def _cycle_size_bound(n: int, h: int) -> int:
    # Two or more chosen vertices need h+1 cycle positions each; a single
    # vertex always fits, and n = 0 adds only zero terms.
    return max(n // (h + 1), 1)


def cycle_count(n: int, h: int) -> int:
    """Total number of independent sets of the h-power of the n-cycle."""
    _require_nonnegative(n, h)
    bound = _cycle_size_bound(n, h)
    # The empty set, then k = 1..bound from C(n - h*k - 1, k - 1).
    total = 1 + sum(_cycle_shares(h, repeat(n), count(1),
                                  _diagonal_binomials(n - h - 1, h, bound - 1)))
    if cycle_count_k(n, h, bound + 1) != 0:
        raise ArithmeticError(f"nonzero cycle count past the size bound: n={n} h={h}")
    return total


def cycle_count_rec(n: int, h: int) -> int:
    """cycle_count via c(n) = c(n-1) + c(n-h-1), c(n) = n+1 for n <= 2h+1."""
    return HSequence(_CYCLE_TOTALS, h).term(n)


# ---------------------------------------------------------------------------
# Delayed Fibonacci / Lucas sequences
# ---------------------------------------------------------------------------

FIBONACCI = "fibonacci"
LUCAS = "lucas"
EXTENDED_FIBONACCI = "extended-fibonacci"
EXTENDED_LUCAS = "extended-lucas"
_PATH_TOTALS = "path-totals"
_CYCLE_TOTALS = "cycle-totals"


def _fib_base(h: int, n: int) -> int:
    # First h+1 terms of the delayed Fibonacci recurrence are all 1.
    return 1


def _lucas_base(h: int, n: int) -> int:
    # Delayed Lucas starts h+1, then a run of h ones.
    return h + 1 if n == 1 else 1


def _ext_fib_base(h: int, n: int) -> int:
    return 1 if n == -h else 0


def _ext_lucas_base(h: int, n: int) -> int:
    if n == -h:
        return h + 1
    if n == -h + 1:
        return -h
    return 0


def _total_base(h: int, n: int) -> int:
    # Too few vertices for two of them to be independent: the empty set and
    # the n singletons.
    return n + 1


# kind -> (first index, last seeded index, name of the seed function), the
# indices as functions of h.  The seed function is looked up by name when a
# sequence is built, so a patched module global takes effect for every
# sequence built after it.
_SEEDS = {
    FIBONACCI: (lambda h: 1, lambda h: h + 1, "_fib_base"),
    LUCAS: (lambda h: 1, lambda h: h + 1, "_lucas_base"),
    EXTENDED_FIBONACCI: (lambda h: -h, lambda h: 0, "_ext_fib_base"),
    EXTENDED_LUCAS: (lambda h: -h, lambda h: 0, "_ext_lucas_base"),
    _PATH_TOTALS: (lambda h: 0, lambda h: h, "_total_base"),
    _CYCLE_TOTALS: (lambda h: 0, lambda h: 2 * h + 1, "_total_base"),
}


def _jump_pays(h: int, steps: int) -> bool:
    """Whether the jump to the term ``steps`` past the last seed is cheaper
    than iterating there.  The model, fitted to timed crossovers for h <= 40:
    a step of the iteration costs one unit, the jump 128 units plus
    (h+1)^2 / 2 per bit of ``steps``, for its d(d+1)/2 products per squaring.
    It never jumps at 128 steps or fewer."""
    return steps > 128 + (h + 1) ** 2 * steps.bit_length() // 2


def _conv_jump_pays(h: int, steps: int) -> bool:
    """Whether :func:`convolve` reaches the index ``steps`` past the first of
    its jump's seeds more cheaply by the jump under P^2, of degree d = 2h+2,
    than by streaming there.  The model, fitted to timed crossovers for
    h <= 40 on Python 3.11.7: a streamed index costs one unit, the jump 128
    units plus d(d+10) / 4 per bit of ``steps``, for its d(d+1)/2 products
    and 5d tap steps per squaring.  Decided from h and ``steps`` alone,
    before any list of h terms is made; it never jumps at 128 steps or
    fewer."""
    d = 2 * h + 2
    return steps > 128 + d * (d + 10) * steps.bit_length() // 4


def _modulus(h: int, power: int) -> tuple[tuple[int, int], ...]:
    """P(x)^power, P(x) = x^(h+1) - x^h - 1, as the taps (e, c) of its
    reduction x^k = sum of c * x^(k-e) over the taps, ordered by e; the
    last e is its degree d = power * (h+1).  P gives (1, 1), (h+1, 1); P^2
    has signed taps, (1, 2), (2, -1), (h+1, 2), (h+2, -2), (2h+2, -1), of
    which some coincide and add up at h <= 1: at h = 0, (x - 2)^2 = x^2 -
    4x + 4 leaves (1, 4), (2, -4)."""
    p = {0: 1}
    for _ in range(power):
        q: dict[int, int] = {}
        for i, ci in p.items():
            for j, cj in ((h + 1, 1), (h, -1), (0, -1)):
                q[i + j] = q.get(i + j, 0) + ci * cj
        p = q
    d = power * (h + 1)
    return tuple((d - j, -c) for j, c in sorted(p.items(), reverse=True) if c and j < d)


def _reduce(s: list[int], taps: tuple[tuple[int, int], ...]) -> list[int]:
    """s(x) mod the modulus of ``taps`` (see :func:`_modulus`), of degree
    d, for the coefficients s of a polynomial of degree below 2d, in place:
    x^k = sum of c * x^(k-e) over the taps, from the top down to x^d.  A tap
    of 1 costs no product.  Under P every tap is positive, so coefficients
    that start nonnegative stay so; at h = 0, where P = x - 2, each step
    doubles."""
    d = taps[-1][0]
    for k in range(len(s) - 1, d - 1, -1):
        v = s[k]
        for e, c in taps:
            s[k - e] += v if c == 1 else c * v
    del s[d:]
    return s


def _x_power(m: int, taps: tuple[tuple[int, int], ...], unit) -> list[int]:
    """Coefficients of x^m mod the modulus of ``taps``, of degree d, as
    multiples of ``unit``, by square and multiply from the top bits of m; the
    leading bits that make an exponent below d give ``unit`` without a product."""
    d = taps[-1][0]
    i = max(m.bit_length() - d.bit_length(), 0)  # m >> i has at most as many bits as d
    if m >> i >= d:
        i += 1
    c = [0] * d
    c[m >> i] = unit
    for i in reversed(range(i)):
        # c^2, each product of two distinct coefficients taken once and
        # doubled, then times x where bit i of m is set.
        s = [0] * (2 * d - 1)
        for j, cj in enumerate(c):
            if cj:
                s[2 * j] += cj * cj
                cj += cj
                for k in range(j + 1, d):
                    s[j + k] += cj * c[k]
        if m >> i & 1:
            s.insert(0, 0)
        c = _reduce(s, taps)
    return c


def _jump_terms(ts: list[int], m: int, taps: tuple[tuple[int, int], ...], unit) -> int:
    """T_m of a sequence that obeys M(E) T = 0 from T_0 on, E the shift and
    M the modulus of ``taps``, of degree d, given T_0..T_(2d-2) as ``ts``:
    Fiduccia's jump (C. M. Fiduccia, SIAM J. Comput. 14 (1985)), in
    O(d^2 log m) products, on the sequence's ``unit``.

    T_m = L(x^m mod M), L the linear map taking x^k to T_k.  Split x^m =
    x^r * x^(m-r), r = m // 2, with a = x^r mod M and c = x^(m-r) mod M (a,
    or a times x): T_m = sum_i a_i * u_i, u_i = sum_j c_j T_(i+j) = T_(m -
    r + i).  Each u_i takes products by small terms only, so the last step
    multiplies d pairs of big numbers, not the d(d+1)/2 of a last squaring.
    """
    d = taps[-1][0]
    r = m >> 1
    a = _x_power(r, taps, unit)
    c = _reduce([0, *a], taps) if m & 1 else a
    return sum(ai * sum(map(mul, c, ts[i:i + d])) for i, ai in enumerate(a) if ai)


class HSequence:
    """An integer sequence t(n) = t(n-1) + t(n-h-1), run from its seeds.

    Six kinds share the recurrence and differ only in their seeds:

    * ``fibonacci``: t(1..h+1) = 1 (indexed from 1)
    * ``lucas``: t(1) = h+1, t(2..h+1) = 1 (indexed from 1)
    * ``extended-fibonacci``: t(-h) = 1, t(-h+1..0) = 0 (indexed from -h,
      needs h >= 2)
    * ``extended-lucas``: t(-h) = h+1, t(-h+1) = -h, then 0 up to t(0)
      (indexed from -h, needs h >= 2; the one kind that can go negative)
    * ``path-totals`` (private): t(0..h) = n+1, the path totals
    * ``cycle-totals`` (private): t(0..2h+1) = n+1, the cycle totals

    A sequence keeps no terms.  Iterating it runs the recurrence from the
    seeds with a window of at most h+1 terms made past the seeds, so memory
    stays flat in the index and grows with h only as far as terms are
    yielded.  An index inside the seed run is answered by the seed function
    alone, and one within h+1 past it by stepping from the last seed, so a
    large h costs nothing until terms well past the seeds are needed.
    :meth:`term` reaches an index further on by iterating, or, far enough
    past the seeds, by the jump of :meth:`_jump`.

    Every seed is multiplied by ``_unit``, ``1`` or ``Decimal(1)``, and so
    are the jump's powers of x, so the terms are ints or Decimals;
    :meth:`numerator` is int either way.
    """

    def __init__(self, kind: str, h: int, _unit=1):
        if kind not in _SEEDS:
            raise ValueError(f"unknown sequence kind {kind!r}")
        if h < 0:
            raise ValueError("h must be nonnegative")
        if kind in (EXTENDED_FIBONACCI, EXTENDED_LUCAS) and h < 2:
            raise ValueError(f"{kind} sequences are only defined for h >= 2")
        first, last, seed = _SEEDS[kind]
        self.kind = kind
        self.h = h
        self.min_index = first(h)
        self._last = last(h)  # at least min_index + h: the recurrence starts from seeds
        seed = globals()[seed]
        # Seeds in the unit's type; the int unit 1 needs no product.
        self._unit = _unit
        self._seed = seed if type(_unit) is int else lambda h, n: _unit * seed(h, n)

    def __repr__(self) -> str:
        return f"HSequence({self.kind!r}, h={self.h})"

    def __iter__(self) -> Iterator[int]:
        """Yield t(min_index), t(min_index + 1), ... without end."""
        h, seed, last = self.h, self._seed, self._last
        for n in range(self.min_index, last + 1):
            t = seed(h, n)
            yield t
        # For h+1 terms past the seeds, t(n-h-1) is still a seed; only the
        # terms made since are kept, so the window fills as terms are yielded.
        window: deque[int] = deque(maxlen=h + 1)  # t(n-h-1) .. t(n-1) once full
        append = window.append
        for n in range(last - h, last + 1):
            t += seed(h, n)
            append(t)
            yield t
        while True:
            t += window[0]
            append(t)
            yield t

    def term(self, n: int) -> int:
        """The n-th term; n counts from ``min_index`` (1, 0, or -h).

        Past the first h+1 indices after the seeds, it takes :meth:`_jump`
        where :func:`_jump_pays` says that is cheaper than iterating.
        """
        h, seed, last = self.h, self._seed, self._last
        if n < self.min_index:
            raise ValueError(
                f"index {n} below first index {self.min_index} of {self.kind} sequence"
            )
        if n <= last:
            return seed(h, n)
        if n <= last + h + 1:
            # t(j-h-1) is a seed for every j <= n: a step per index past the
            # last seed, and no window.
            return seed(h, last) + sum(seed(h, j) for j in range(last - h, n - h))
        if _jump_pays(h, n - last):
            return self._jump(n)
        return self._iterate(n)

    def _iterate(self, n: int) -> int:
        """t(n) for n >= ``min_index`` by running the recurrence from the seeds."""
        return next(islice(self, n - self.min_index, None))

    def _jump(self, n: int) -> int:
        """t(n) for n >= last - h by :func:`_jump_terms` under P(x) = x^(h+1) -
        x^h - 1: from index last - h on, the terms obey P(E) t = 0.  Its
        T_0..T_2h are the last h+1 seeds and the h terms stepped from them.
        """
        h, seed, last = self.h, self._seed, self._last
        ts = [seed(h, j) for j in range(last - h, last + 1)]
        ts[h:] = accumulate(ts[:h], initial=ts[h])  # each step adds a seed
        return _jump_terms(ts, n - last + h, _modulus(h, 1), self._unit)

    def prefix(self, n: int) -> list[int]:
        """Terms from ``min_index`` through n inclusive (none if n is below
        ``min_index``)."""
        return list(islice(self, max(n - self.min_index + 1, 0)))

    def numerator(self, count: int) -> tuple[tuple[int, int], ...]:
        """The nonzero coefficients (k, beta_k), k < count, of beta = B * Q,
        where B(x) = sum_{j>=1} t(j) x^(j-1) and Q(x) = 1 - x - x^(h+1).

        beta_k = t(k+1) - t(k) - t(k-h), with t read as 0 below index 1.
        Past the seeds and index h+1 the recurrence cancels every
        coefficient, so beta is short: (1) for Fibonacci, (h+1, -h) for
        Lucas.  Runs min(count, K) terms, K the larger of the last seeded
        index and h+1, so a short convolution costs little whatever h is.
        """
        h = self.h
        size = min(count, max(self._last, h + 1))
        one = 1 - self.min_index  # position of index 1
        t = [0, *islice(self, one, one + size)]  # t(0) read as 0, t(1..size)
        beta = (t[k + 1] - t[k] - (t[k - h] if k > h else 0) for k in range(size))
        return tuple((k, int(v)) for k, v in enumerate(beta) if v)


def h_fibonacci(h: int, n: int) -> int:
    """n-th delayed-Fibonacci number for gap h (n >= 1)."""
    return HSequence(FIBONACCI, h).term(n)


def h_lucas(h: int, n: int) -> int:
    """n-th delayed-Lucas number for gap h (n >= 1)."""
    return HSequence(LUCAS, h).term(n)


def extended_fib(h: int, n: int) -> int:
    """Delayed-Fibonacci extended down to index -h (h >= 2).

    Agrees with h_fibonacci for every n >= 1.
    """
    return HSequence(EXTENDED_FIBONACCI, h).term(n)


def extended_lucas(h: int, n: int) -> int:
    """Delayed-Lucas extended down to index -h (h >= 2); t(-h+1) = -h < 0.

    Agrees with h_lucas for every n >= 1.
    """
    return HSequence(EXTENDED_LUCAS, h).term(n)


def convolve(a: HSequence, b: HSequence, n: int) -> int:
    """Discrete convolution g(n) = sum_{i=1..n} a(i) * b(n-i+1) (n >= 1).

    Computed without a single product of two sequence terms.  b's generating
    function is beta / Q with Q(x) = 1 - x - x^(h+1) and a short numerator
    beta (see :meth:`HSequence.numerator`), so g is beta * U with U = A / Q:

        u(j) = u(j-1) + u(j-h-1) + a(j),   g(n) = sum_k beta_k * u(n-k),

    with u and a read as 0 below index 1.  u is streamed once, driven by
    a's own recurrence, at three big-integer additions per index, and beta
    is applied once, to the last few values of u.

    Far enough out (:func:`_conv_jump_pays`), it takes :func:`_conv_jump`
    instead, in O(h^2 log n) products.
    """
    if a.h != b.h:
        raise ValueError(f"cannot convolve sequences with h={a.h} and h={b.h}")
    if n < 1:
        raise ValueError("convolution index must be >= 1")
    if _conv_jump_pays(a.h, n - _conv_start(a, b)):
        return _conv_jump(a, b, n)
    beta = b.numerator(n)
    # b vanishes on 1..n.  No kind does (b(1) >= 1), but the tests' Lucas
    # fault injection, t(1) = h instead of h+1, does at h = 0.
    if not beta:
        return 0
    # Every k in beta is below n, so the tail holds u(n-K) .. u(n).
    return _combine(beta, deque(_driven(a, n), maxlen=beta[-1][0] + 1))


def _conv_start(a: HSequence, b: HSequence) -> int:
    """The first index s from which g = a * b obeys P(E)^2 g = 0, P(x) =
    x^(h+1) - x^h - 1.  As A = alpha / Q too, g's generating function is
    alpha * beta / Q^2, so g obeys it wherever the order d = 2h+2 outreaches
    the numerator: alpha has degree at most K_a and beta below K_b, K the
    larger of the last seeded index and h+1, so s = max(1, K_a + K_b - d),
    which is 1 for every kind but the cycle totals."""
    h = a.h
    return max(1, max(a._last, h + 1) + max(b._last, h + 1) - 2 * h - 2)


def _conv_jump(a: HSequence, b: HSequence, n: int) -> int:
    """g(n) of :func:`convolve` for n >= :func:`_conv_start` by
    :func:`_jump_terms` under P^2, from g(s..s+2d-2), which the stream
    gives: O(h^2 log n) products instead of n streamed indices."""
    s, d = _conv_start(a, b), 2 * a.h + 2
    ts = [*islice(_convolution(a, b, s + 2 * d - 2), s - 1, None)]
    return _jump_terms(ts, n - s, _modulus(a.h, 2), a._unit)


def _driven(a: HSequence, n: int) -> Iterator[int]:
    """Yield u(1), ..., u(n) of u(j) = u(j-1) + u(j-h-1) + a(j) (n >= 0)."""
    # u(j-m) .. u(j-1).  With m = n <= h, window[0] stands for u(j-h-1),
    # which is 0 like u(j-m) for every j <= n.
    m = min(a.h + 1, n)
    window = deque([0] * m, maxlen=m)
    append = window.append
    u = 0
    one = 1 - a.min_index
    for t in islice(a, one, one + n):
        u += window[0] + t
        append(u)
        yield u


def _combine(beta: tuple[tuple[int, int], ...], tail: deque[int]) -> int:
    """sum_k beta_k * u(j-k) for ``tail`` ending in u(j); a coefficient of 1
    costs no product."""
    return reduce(add, (tail[-1 - k] if c == 1 else c * tail[-1 - k] for k, c in beta))


def _convolution(a: HSequence, b: HSequence, n: int) -> Iterator[int]:
    """Yield g(1), ..., g(n) of :func:`convolve`, applying beta at each index."""
    beta = b.numerator(n)
    if not beta:  # b vanishes on 1..n
        yield from repeat(0, n)
    elif beta == ((0, 1),):  # g = u, as for F * F
        yield from _driven(a, n)
    else:
        size = beta[-1][0] + 1
        tail = deque([0] * size, maxlen=size)
        for u in _driven(a, n):
            tail.append(u)
            yield _combine(beta, tail)


# ---------------------------------------------------------------------------
# Edge counts of the inclusion diagrams
# ---------------------------------------------------------------------------

def path_edges(n: int, h: int) -> int:
    """Edges of the inclusion diagram over independent sets of the path
    power: every k-subset covers exactly k subsets, so this is
    sum_k k * path_count_k(n, h, k)."""
    _require_nonnegative(n, h)
    bound = max_subset_size(n, h)
    return sum(k * b for k, b in enumerate(_diagonal_binomials(n + h, h, bound)))


def path_edges_conv(n: int, h: int) -> int:
    """path_edges computed the other way: the delayed-Fibonacci sequence
    convolved with itself."""
    if n == 0:
        return 0
    f = HSequence(FIBONACCI, h)
    return convolve(f, f, n)


def cycle_edges(n: int, h: int) -> int:
    """Edges of the inclusion diagram over independent sets of the cycle
    power: sum_k k * cycle_count_k(n, h, k).

    Defined for every n, h >= 0.  For 0 < n <= h the diagram is the star of
    n singletons below the empty set, giving n edges.  Summed as
    n * sum_k C(n - h*k - 1, k - 1), since k * cycle_count_k is that term.
    """
    _require_nonnegative(n, h)
    return n * sum(_diagonal_binomials(n - h - 1, h, _cycle_size_bound(n, h) - 1))


def cycle_edges_closed(n: int, h: int) -> int:
    """cycle_edges as n * F(n-h) with F the delayed-Fibonacci sequence.

    Only valid for n > h (each singleton's neighborhood must leave a path).
    Its method is ``recurrence``, as F runs the delayed recurrence; the name
    stays because it is public API and names a per-layer benchmark metric.
    """
    if n <= h:
        raise ValueError(f"n * F(n-h) needs n > h, got n={n} h={h}")
    return n * h_fibonacci(h, n - h)


def cycle_edges_conv(n: int, h: int) -> int:
    """cycle_edges as the Fibonacci-with-Lucas convolution at index n-h;
    also only valid for n > h."""
    if n <= h:
        raise ValueError(f"convolution form needs n > h, got n={n} h={h}")
    return convolve(HSequence(FIBONACCI, h), HSequence(LUCAS, h), n - h)


# ---------------------------------------------------------------------------
# Table rows: one quantity for n = 0..n_max in one linear pass
# ---------------------------------------------------------------------------

# The four rows below pass their private ``_unit`` to the sequence they read
# (see HSequence), so their values are Decimals for Decimal(1).

def path_count_row(n_max: int, h: int, _unit=1) -> list[int]:
    """path_count(n, h) for n = 0..n_max: a prefix of the path totals."""
    return HSequence(_PATH_TOTALS, h, _unit).prefix(n_max)


def cycle_count_row(n_max: int, h: int, _unit=1) -> list[int]:
    """cycle_count(n, h) for n = 0..n_max: a prefix of the cycle totals."""
    return HSequence(_CYCLE_TOTALS, h, _unit).prefix(n_max)


def path_edges_row(n_max: int, h: int, _unit=1) -> list[int]:
    """path_edges(n, h) for n = 0..n_max: 0, then the self-convolution of
    the delayed-Fibonacci sequence at 1..n_max."""
    f = HSequence(FIBONACCI, h, _unit)
    return [0, *_convolution(f, f, n_max)] if n_max >= 0 else []


def cycle_edges_row(n_max: int, h: int, _unit=1) -> list[int]:
    """cycle_edges(n, h) for n = 0..n_max: 0 at n = 0, the n singleton
    edges for 0 < n <= h, and n * F(n-h) beyond, F(1..n_max-h) streamed."""
    star = range(min(h, n_max) + 1)
    return [*star, *map(mul, range(h + 1, n_max + 1), HSequence(FIBONACCI, h, _unit))]


def path_count_k_rows(n_max: int, h: int) -> Iterator[list[int]]:
    """Yield path_count_k(n, h, k) for n = 0..n_max as rows k = 0, 1, ...
    without end: ones, n, then each row the running sum of the row above
    delayed by h+1 columns, C(n-h*k, k+1) = sum_{m <= n-h-1} C(m-h*k+h, k),
    as a k-subset avoids vertex n or holds it and none of the h before it.
    Rows rise along n, so past a zero last cell every row is zero."""
    _require_gap(h)
    width = max(n_max + 1, 0)
    delay = min(h + 1, width)
    yield [1] * width
    row = list(range(width))
    while True:
        yield row
        row = ([*repeat(0, delay), *islice(accumulate(row), width - delay)]
               if row and row[-1] else [0] * width)


def cycle_count_k_rows(n_max: int, h: int) -> Iterator[list[int]]:
    """Yield cycle_count_k(n, h, k) for n = 0..n_max as rows k = 0, 1, ...
    without end: the first two path rows, then path row k delayed by h
    columns plus h times path row k-1 delayed by 2h+1, as a k-subset holds
    at most one of the vertices 1..h: C(n-h*k, k) + h * C(n-h*k-1, k-1)."""
    width = max(n_max + 1, 0)
    lead, join = min(h, width), min(2 * h + 1, width)  # the two delays, clipped
    rows = path_count_k_rows(n_max, h)
    yield next(rows)
    yield (below := next(rows))
    for row in rows:
        yield [*repeat(0, lead), *map(add, islice(row, width - lead),
                                      chain(repeat(0, join - lead), map(mul, repeat(h), below)))]
        below = row


# ---------------------------------------------------------------------------
# Per-vertex subset counts
# ---------------------------------------------------------------------------

def path_count_clamped(n: int, h: int) -> int:
    """path_count with negative n clamped to the empty graph (value 1)."""
    return path_count(max(n, 0), h)


def t_count(n: int, h: int, k: int, i: int) -> int:
    """Independent k-subsets of the h-power of the n-path that contain
    vertex i (1-based).

    Splits at vertex i: anything else in the subset lies in the segment of
    L = max(i-h-1, 0) vertices left of it or R = max(n-i-h, 0) right of it,
    and the two sides are counted independently:
    sum over r of path_count_k(L, h, r) * path_count_k(R, h, k-1-r).

    Only r within both segments' size bounds contribute, so the sum runs
    over that support alone, where every term is a plain C(L-h*r+h, r) *
    C(R-h*s+h, s) with s = k-1-r; an empty support gives 0.
    """
    if not 1 <= i <= n:
        raise ValueError(f"vertex index {i} out of range 1..{n}")
    if k < 1:
        raise ValueError("subset size k must be >= 1")
    _require_gap(h)
    # Conditional expressions, not max and min: those four builtin calls
    # took about a third of the time of a typical call.
    step = h + 1
    left = i - step if i > step else 0
    right = n - i - h if n - i > h else 0
    # r runs from k-1 less the right side's largest size, ceil(R / step), up
    # to the left side's, ceil(L / step), and within 0..k-1.
    lo = k - 1 + -right // step
    if lo < 0:
        lo = 0
    hi = -(-left // step)
    if hi >= k:
        hi = k - 1
    s = k - 1 - lo
    # The binomial tops step by -h (left) and +h (right) as r grows.
    a, b = left + h - h * lo, right + h - h * s
    comb = math.comb
    total = 0
    for r in range(lo, hi + 1):
        total += comb(a, r) * comb(b, s)
        a -= h
        b += h
        s -= 1
    return total
