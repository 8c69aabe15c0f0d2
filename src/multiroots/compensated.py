"""Compensated (double-word) Horner evaluation of complex polynomials.

Plain binary64 Horner loses all significance once the polynomial value
drops below ``eps * sum(|a_k| |z|^k)``; near a root of multiplicity 2 or 3
the computed value is then pure rounding noise (frequently exactly 0.0),
which starves the iteration of its residual signal.  Accumulating in
double-word arithmetic keeps roughly twice the working precision.

``horner_with_derivative`` writes the classic error-free transformations
(Knuth two-sum, Dekker split and product; no FMA) out inline on local
floats.  Its reference is the Horner loop over the ``ComplexDD`` class of
``tests/test_polynomial.py``, whose binary64 operations it performs in the
same order, so its finite results are bitwise the loop's.

Dekker's product needs both factors within ``_SPLIT_LIMIT``, which the
reference tests per product.  The kernel settles it once per call from an
a priori bound instead.  With R = max(1, |z|) and A = 1 + sum |a_k|, every
partial Horner value is at most A R^n in modulus and every partial
derivative at most n A R^n; the computed accumulators exceed these by a
factor 1 + O(n eps) at most, as in the a priori error bound of Graillat,
Langlois & Louvet ("Compensated Horner scheme", 2005).  So where
n A R^n <= 2^990 every test would pass and the loop runs without them.
Only inputs whose bound exceeds 2^990, or seems to once A, R and n are
rounded up to powers of two, take ``_guarded_horner``, which tests every
product.  One
degree-6 evaluation takes about 15 us and each further degree about
2.3 us, 5-8% less than with a test per product and a third of the
reference loop's 50-65 us at degree 6 (minimum and median ratio of 3,000
alternated calls; CPython 3.11, shared Xeon).
"""

from __future__ import annotations

from math import frexp, inf
from typing import Sequence

_SPLITTER = 134217729.0  # 2**27 + 1

# Dekker's split overflows once |a| * _SPLITTER exceeds the binary64 range;
# a factor beyond this magnitude takes the uncompensated product (the
# compensation term is meaningless that close to overflow anyway).
_SPLIT_LIMIT = 2.0 ** 996

# The loop without per-product tests runs where n A R^n <= 2^_FREE_EXPONENT,
# 2^6 below _SPLIT_LIMIT: a margin for the 1 + O(n eps) growth of the
# computed accumulators over the exact partial values.
_FREE_EXPONENT = 990


def horner_with_derivative(
    coefficients: Sequence[complex], z: complex
) -> tuple[complex, complex]:
    """Compensated Horner pass for ``x^n + a_1 x^(n-1) + ... + a_n`` and its
    derivative at ``z``; ``coefficients`` holds ``a_1 .. a_n``.

    Bitwise equal to this recurrence of ``tests/test_polynomial.py`` ::

        value, deriv = ComplexDD(1.0), ComplexDD(0.0)
        for a in coefficients:
            deriv = deriv.mul_complex(z).add(value)
            value = value.mul_complex(z).add_complex(a)

    with that file's ``two_prod``, ``dd_mul_double``, ``dd_add`` and
    ``dd_add_double`` written out inline.  The splits of ``z.real``,
    ``z.imag`` and ``-z.imag`` are hoisted out of the loop (``-z.imag`` is
    split directly, so signed zeros come out as ``two_prod`` would give
    them), and each accumulator part is split once per step for its two
    products.

    ``two_prod``'s ``_SPLIT_LIMIT`` guard (a factor beyond it contributes
    no error term) is settled once per call from binary exponents, with
    no log or pow: A < 2^e(A), R < 2^e(R) and n < 2^bitlength(n), so
    where e(A) + bitlength(n) + n e(R) <= 990 the bound n A R^n <= 2^990
    holds and the loop below runs unguarded; otherwise `_guarded_horner`
    tests every product.
    ``two_prod``'s other guard, for a non-finite product, is left out:
    once a product is inf or nan, +, - and * keep the accumulators
    non-finite, so a result it would change is non-finite either way.
    The caller checks ``z`` and the results for finiteness.
    """
    n = len(coefficients)
    size = 1.0 + sum(map(abs, coefficients))
    radius = abs(z)
    # inf and nan fail the first test, so frexp never sees them
    if not (size < inf and radius < inf) or (
            frexp(size)[1] + n.bit_length()
            + (n * frexp(radius)[1] if radius > 1.0 else 0) > _FREE_EXPONENT):
        return _guarded_horner(coefficients, z)

    S = _SPLITTER
    zr, zi = z.real, z.imag
    nzi = -zi
    t = S * zr
    zrh = t - (t - zr)
    zrt = zr - zrh
    t = S * zi
    zih = t - (t - zi)
    zit = zi - zih
    t = S * nzi
    nzih = t - (t - nzi)
    nzit = nzi - nzih

    # value = vr + vi*j and deriv = dr + di*j, each part a (hi, lo) pair.
    vr, vrl, vi, vil = 1.0, 0.0, 0.0, 0.0
    dr, drl, di, dil = 0.0, 0.0, 0.0, 0.0
    for a in coefficients:
        # deriv * z: real = dr*zr + di*(-zi), imag = dr*zi + di*zr.
        t = S * dr
        xh = t - (t - dr)
        xt = dr - xh
        t = S * di
        yh = t - (t - di)
        yt = di - yh

        p = dr * zr
        e = (((xh * zrh - p) + xh * zrt) + xt * zrh) + xt * zrt
        e = e + drl * zr
        ph = p + e
        pl = e - (ph - p)
        p = di * nzi
        e = (((yh * nzih - p) + yh * nzit) + yt * nzih) + yt * nzit
        e = e + dil * nzi
        qh = p + e
        ql = e - (qh - p)
        s = ph + qh
        b = s - ph
        e = (ph - (s - b)) + (qh - b)
        e = e + (pl + ql)
        rh = s + e
        rl = e - (rh - s)

        p = dr * zi
        e = (((xh * zih - p) + xh * zit) + xt * zih) + xt * zit
        e = e + drl * zi
        ph = p + e
        pl = e - (ph - p)
        p = di * zr
        e = (((yh * zrh - p) + yh * zrt) + yt * zrh) + yt * zrt
        e = e + dil * zr
        qh = p + e
        ql = e - (qh - p)
        s = ph + qh
        b = s - ph
        e = (ph - (s - b)) + (qh - b)
        e = e + (pl + ql)
        ih = s + e
        il = e - (ih - s)

        # deriv = deriv * z + value
        s = rh + vr
        b = s - rh
        e = (rh - (s - b)) + (vr - b)
        e = e + (rl + vrl)
        dr = s + e
        drl = e - (dr - s)
        s = ih + vi
        b = s - ih
        e = (ih - (s - b)) + (vi - b)
        e = e + (il + vil)
        di = s + e
        dil = e - (di - s)

        # value * z, with the same products on the value parts.
        t = S * vr
        xh = t - (t - vr)
        xt = vr - xh
        t = S * vi
        yh = t - (t - vi)
        yt = vi - yh

        p = vr * zr
        e = (((xh * zrh - p) + xh * zrt) + xt * zrh) + xt * zrt
        e = e + vrl * zr
        ph = p + e
        pl = e - (ph - p)
        p = vi * nzi
        e = (((yh * nzih - p) + yh * nzit) + yt * nzih) + yt * nzit
        e = e + vil * nzi
        qh = p + e
        ql = e - (qh - p)
        s = ph + qh
        b = s - ph
        e = (ph - (s - b)) + (qh - b)
        e = e + (pl + ql)
        rh = s + e
        rl = e - (rh - s)

        p = vr * zi
        e = (((xh * zih - p) + xh * zit) + xt * zih) + xt * zit
        e = e + vrl * zi
        ph = p + e
        pl = e - (ph - p)
        p = vi * zr
        e = (((yh * zrh - p) + yh * zrt) + yt * zrh) + yt * zrt
        e = e + vil * zr
        qh = p + e
        ql = e - (qh - p)
        s = ph + qh
        b = s - ph
        e = (ph - (s - b)) + (qh - b)
        e = e + (pl + ql)
        ih = s + e
        il = e - (ih - s)

        # value = value * z + a
        c = a.real
        s = rh + c
        b = s - rh
        e = (rh - (s - b)) + (c - b)
        e = e + rl
        vr = s + e
        vrl = e - (vr - s)
        c = a.imag
        s = ih + c
        b = s - ih
        e = (ih - (s - b)) + (c - b)
        e = e + il
        vi = s + e
        vil = e - (vi - s)

    return complex(vr + vrl, vi + vil), complex(dr + drl, di + dil)


def _split(x):
    # Dekker's split of x into a high part of 26 bits and the rest.
    t = _SPLITTER * x
    h = t - (t - x)
    return h, x - h


def _mul(xh, xl, y):
    # dd_mul_double: (xh + xl) * y, with two_prod's error term only where
    # both factors are within _SPLIT_LIMIT.
    p = xh * y
    e = 0.0
    if abs(xh) <= _SPLIT_LIMIT and abs(y) <= _SPLIT_LIMIT:
        ah, at = _split(xh)
        bh, bt = _split(y)
        e = (((ah * bh - p) + ah * bt) + at * bh) + at * bt
    e = e + xl * y
    h = p + e
    return h, e - (h - p)


def _sum(a, b, tail):
    # two_sum(a, b), its error plus ``tail``, renormalized: dd_add with
    # tail = alo + blo, dd_add_double with tail = alo.
    s = a + b
    c = s - a
    e = ((a - (s - c)) + (b - c)) + tail
    h = s + e
    return h, e - (h - s)


def _guarded_horner(coefficients, z):
    """`horner_with_derivative` with the ``_SPLIT_LIMIT`` test on every
    product, for inputs beyond its a priori bound."""
    zr, zi = z.real, z.imag
    nzi = -zi

    def times_z(xr, xrl, xi, xil):
        ph, pl = _mul(xr, xrl, zr)
        qh, ql = _mul(xi, xil, nzi)
        rh, rl = _sum(ph, qh, pl + ql)
        ph, pl = _mul(xr, xrl, zi)
        qh, ql = _mul(xi, xil, zr)
        ih, il = _sum(ph, qh, pl + ql)
        return rh, rl, ih, il

    vr, vrl, vi, vil = 1.0, 0.0, 0.0, 0.0
    dr, drl, di, dil = 0.0, 0.0, 0.0, 0.0
    for a in coefficients:
        rh, rl, ih, il = times_z(dr, drl, di, dil)
        dr, drl = _sum(rh, vr, rl + vrl)
        di, dil = _sum(ih, vi, il + vil)
        rh, rl, ih, il = times_z(vr, vrl, vi, vil)
        vr, vrl = _sum(rh, a.real, rl)
        vi, vil = _sum(ih, a.imag, il)
    return complex(vr + vrl, vi + vil), complex(dr + drl, di + dil)
