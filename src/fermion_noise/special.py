"""Special functions of the bound formulas, implemented in-house.

One Riemann zeta function on ``s >= -15`` except the pole at 1 (summed
down to just below 0, reflected under that), the real polylogarithm and the
arithmetic-geometric mean, each with documented error control, so the
runtime needs nothing beyond numpy.  Zeta and the polylogarithm are pure
functions of their float arguments, and the bound tables ask for the same
values again and again (``zeta(s)`` in every row of an exponent, ``f(p)``
once per circuit depth): both are memoized in a bounded LRU cache, so each
value is summed once and a sweep over ``p`` cannot grow the cache without
limit.  Errors are not cached; an invalid call raises every time.
"""

from __future__ import annotations

import functools
import math
from typing import List

import numpy as np

# Bernoulli numbers B_2, B_4, ..., B_16 for the Euler-Maclaurin tail.
_BERNOULLI = (
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30,
    5.0 / 66, -691.0 / 2730, 7.0 / 6, -3617.0 / 510,
)
_EM_CUTOFF = 100
# -ln of the share of the first term below which direct polylog terms are skipped.
_SKIP_DIGITS = 80 * math.log(2.0)
# Entries of each memo: a few hundred, far above the distinct values of one run.
_CACHE_SIZE = 256


def _check_order(s: float) -> None:
    if not math.isfinite(s):
        raise ValueError(f"order s must be finite, got {s}")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def riemann_zeta(s: float) -> float:
    """Riemann zeta on ``s >= -15`` except the pole at ``s = 1``, memoized.

    From ``s = -0.01`` up: the direct sum to a cutoff M = 100, the tail
    ``M^{1-s}/(s-1) + M^{-s}/2`` and Euler-Maclaurin terms through B_16.
    Below, where the terms ``k^{-s}`` grow and cancel, the reflection
    ``2^s pi^{s-1} sin(pi s / 2) Gamma(1 - s) zeta(1 - s)``; it is not used up
    to 0 because it loses ``eps / |s|`` to the pole of ``zeta(1 - s)``.
    Against mpmath: below 1e-13 for ``|s - 1| >= 0.01``, ~1e-16 relative nearer.
    A non-finite ``s`` raises ``ValueError``.
    """
    _check_order(s)
    if abs(s - 1.0) < 1e-12:
        raise ValueError("zeta has a pole at s = 1")
    if s < -15:
        raise ValueError(f"argument {s} below the validated continuation range s >= -15")
    if s < -0.01:
        return (2.0**s * math.pi ** (s - 1.0) * math.sin(0.5 * math.pi * s)
                * math.gamma(1.0 - s) * riemann_zeta(1.0 - s))
    m = _EM_CUTOFF
    k = np.arange(1, m, dtype=float)
    total = float(np.sum(k ** (-s)))
    total += m ** (1.0 - s) / (s - 1.0) + 0.5 * m ** (-s)
    poch = s
    power = m ** (-s - 1.0)
    fact = 2.0
    for j, b in enumerate(_BERNOULLI, start=1):
        total += b / fact * poch * power
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        power /= m * m
        fact *= (2 * j + 1) * (2 * j + 2)
    return total


def _polylog_direct(s: float, z: float) -> float:
    """Direct summation of ``sum z^k / k^s`` with a rigorous tail bound.

    For ``s >= 0`` the terms are below ``z^k``, so past
    ``k_last = 1 + (ln 2^80 - ln(1 - z)) / w`` they add up to less than
    ``2^-80 z``, some 2^-28 of the sum's last bit: they are not evaluated.
    The 1e-13 tail bound is then checked at ``k_last``.

    Chunks double from 2^16 to 2^21 terms.  The live terms of a chunk are
    evaluated in place into one buffer, padded with zeros only to the next
    power of two (at least 128) rather than to the chunk length.  The result
    is still bit-identical to summing every term of every chunk: numpy's
    pairwise sum splits a power-of-two length into equal halves down to
    blocks of 128, so the padded buffer is the leftmost subtree of the full
    chunk's tree, and every other subtree holds only zeros and adds an
    exact ``+0.0`` to the positive terms.
    """
    w = -math.log(z)
    k_last = 1 + math.ceil((_SKIP_DIGITS - math.log(-math.expm1(-w))) / w) \
        if s >= 0 else math.inf
    chunks: List[float] = []
    k0 = 1
    chunk = 1 << 16
    while True:
        n_live = int(min(chunk, max(1, k_last - k0 + 1)))
        k = np.arange(k0, k0 + n_live, dtype=float)
        terms = np.zeros(min(chunk, max(128, 1 << (n_live - 1).bit_length())))
        live = terms[:n_live]
        # exp(-w k - s log k), operation for operation, without temporaries
        np.log(k, out=live)
        live *= s
        k *= -w
        np.subtract(k, live, out=live)
        np.exp(live, out=live)
        chunks.append(float(np.sum(terms)))
        k_end = k0 + n_live - 1
        last = terms[n_live - 1]
        # once past any initial growth the term ratio is below ratio < 1
        ratio = z * ((k_end + 1.0) / k_end) ** max(0.0, -s)
        if ratio < 1.0:
            tail = last * ratio / (1.0 - ratio)
            if tail < 1e-13:
                return math.fsum(chunks)
        k0 += chunk
        chunk = min(2 * chunk, 1 << 21)


def _polylog_near_one(s: float, z: float) -> float:
    """Expansion of the polylogarithm around z = 1 (w = -ln z small)."""
    w = -math.log(z)
    n = round(s)
    terms = 12
    if abs(s - n) < 1e-8 and n >= 1:  # the poles of Gamma(1 - s) and zeta(s - n + 1) meet
        if n < 2:
            raise ValueError(f"polylog diverges: s = {s} with z = {z} too close to 1")
        harmonic = sum(1.0 / i for i in range(1, n))
        total = (-w) ** (n - 1) / math.factorial(n - 1) * (harmonic - math.log(w))
        for j in range(terms):
            if j == n - 1:
                continue
            total += riemann_zeta(n - j) * (-w) ** j / math.factorial(j)
        return total
    if s <= 1.0 and w < 1e-9:
        raise ValueError(f"polylog diverges: s = {s} with z = {z} too close to 1")
    total = math.gamma(1.0 - s) * w ** (s - 1.0)
    for j in range(terms):
        total += riemann_zeta(s - j) * (-w) ** j / math.factorial(j)
    return total


@functools.lru_cache(maxsize=_CACHE_SIZE)
def polylog(s: float, z: float) -> float:
    """Real polylogarithm ``Li_s(z)`` for ``z in [0, 1]``, memoized.

    ``z = 1`` needs ``s > 1`` (value zeta(s)); otherwise, with ``w = -ln z``,
    direct summation is used away from 1 and the standard expansion in ``w``
    close to 1: below ``w = 1e-5``, and up to ``w = 1e-3`` where ``s >= -4``
    and ``s`` is a positive integer or 1e-6 or more from every one (nearer,
    the expansion's poles cancel and leave ~1e-10).  Its leading term is the
    ``zeta(s)`` the bound tables subtract ``z Li_s(z)`` from, so their
    difference keeps ~1e-13 relative where a direct sum of some ``60 / w``
    terms leaves ~1e-10.  The expansion reads ``zeta(s - j)`` for
    ``j <= 11``, so below ``w = 1e-5`` the domain is ``s >= -4``, and ``s``
    within 1e-8 of 1 diverges there.  Absolute error is kept below ~1e-10
    across the supported domain; a non-finite order ``s`` raises
    ``ValueError`` (a NaN one never ends the direct sum's tail test).
    """
    _check_order(s)
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"polylog argument must lie in [0, 1], got z = {z}")
    if z == 0.0:
        return 0.0
    if z == 1.0:
        if s <= 1.0 + 1e-6:
            raise ValueError(f"polylog diverges at z = 1 for s = {s}")
        return riemann_zeta(s)
    if abs(s - 1.0) < 1e-12:
        return -math.log1p(-z)
    w = -math.log(z)
    n = round(s)
    pole = s != n and n >= 1 and abs(s - n) < 1e-6  # where the expansion's poles cancel
    if w >= 1e-3 or (w >= 1e-5 and (s < -4 or pole)):
        return _polylog_direct(s, z)
    if s < -4:
        raise ValueError(f"polylog near z = 1 needs s >= -4, got s = {s} with z = {z}")
    return _polylog_near_one(s, z)


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive numbers.

    Converges quadratically; iteration stops once the two means agree to
    1e-15 relative.
    """
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)
