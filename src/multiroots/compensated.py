"""Double-word (compensated) arithmetic for complex accumulation.

Plain binary64 Horner loses all significance once the polynomial value
drops below ``eps * sum(|a_k| |z|^k)``; near a root of multiplicity 2 or 3
the computed value is then pure rounding noise (frequently exactly 0.0),
which starves the iteration of its residual signal.  Accumulating in
double-word arithmetic keeps roughly twice the working precision.

The primitives below are the classic error-free transformations (Knuth
two-sum, Dekker split and product); no FMA is assumed.  ``ComplexDD``
combines them into complex double-word values.  ``horner_with_derivative``
is the evaluation kernel: it performs the same binary64 operations, in the
same order, as a Horner loop over ``ComplexDD``, but on plain local floats,
with the Dekker splits of the evaluation point computed once per call.
One degree-6 evaluation takes about 20 us, against 50-65 us for the
``ComplexDD`` loop (best of 7 x 2,000 calls; CPython 3.11, shared Xeon).
"""

from __future__ import annotations

import math
from typing import Sequence

_SPLITTER = 134217729.0  # 2**27 + 1

# Dekker's split overflows once |a| * _SPLITTER exceeds the binary64 range;
# beyond this magnitude two_prod falls back to the uncompensated product
# (the compensation term is meaningless that close to overflow anyway).
_SPLIT_LIMIT = 2.0 ** 996


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Exact sum: returns (fl(a+b), rounding error)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a: float, b: float) -> tuple[float, float]:
    """two_sum assuming |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def two_prod(a: float, b: float) -> tuple[float, float]:
    """Exact product: returns (fl(a*b), rounding error)."""
    p = a * b
    if not math.isfinite(p) or abs(a) > _SPLIT_LIMIT or abs(b) > _SPLIT_LIMIT:
        return p, 0.0
    ta = _SPLITTER * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLITTER * b
    bhi = tb - (tb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def dd_add(ahi: float, alo: float, bhi: float, blo: float) -> tuple[float, float]:
    s, e = two_sum(ahi, bhi)
    e += alo + blo
    return quick_two_sum(s, e)


def dd_add_double(ahi: float, alo: float, b: float) -> tuple[float, float]:
    s, e = two_sum(ahi, b)
    e += alo
    return quick_two_sum(s, e)


def dd_mul_double(ahi: float, alo: float, b: float) -> tuple[float, float]:
    p, e = two_prod(ahi, b)
    e += alo * b
    return quick_two_sum(p, e)


class ComplexDD:
    """A complex number whose real and imaginary parts are double-word.

    Supports exactly the operations the Horner recurrences need: multiply
    by an ordinary complex, add an ordinary complex, add another ComplexDD,
    and round back to a complex double.
    """

    __slots__ = ("rh", "rl", "ih", "il")

    def __init__(self, rh: float = 0.0, rl: float = 0.0,
                 ih: float = 0.0, il: float = 0.0):
        self.rh, self.rl, self.ih, self.il = rh, rl, ih, il

    def mul_complex(self, z: complex) -> "ComplexDD":
        zr, zi = z.real, z.imag
        arh, arl = dd_mul_double(self.rh, self.rl, zr)
        brh, brl = dd_mul_double(self.ih, self.il, -zi)
        rh, rl = dd_add(arh, arl, brh, brl)
        crh, crl = dd_mul_double(self.rh, self.rl, zi)
        drh, drl = dd_mul_double(self.ih, self.il, zr)
        ih, il = dd_add(crh, crl, drh, drl)
        return ComplexDD(rh, rl, ih, il)

    def add_complex(self, c: complex) -> "ComplexDD":
        rh, rl = dd_add_double(self.rh, self.rl, c.real)
        ih, il = dd_add_double(self.ih, self.il, c.imag)
        return ComplexDD(rh, rl, ih, il)

    def add(self, other: "ComplexDD") -> "ComplexDD":
        rh, rl = dd_add(self.rh, self.rl, other.rh, other.rl)
        ih, il = dd_add(self.ih, self.il, other.ih, other.il)
        return ComplexDD(rh, rl, ih, il)

    def to_complex(self) -> complex:
        return complex(self.rh + self.rl, self.ih + self.il)


def horner_with_derivative(
    coefficients: Sequence[complex], z: complex
) -> tuple[complex, complex]:
    """Compensated Horner pass for ``x^n + a_1 x^(n-1) + ... + a_n`` and its
    derivative at ``z``; ``coefficients`` holds ``a_1 .. a_n``.

    Bitwise equal to the ``ComplexDD`` recurrence ::

        value, deriv = ComplexDD(1.0), ComplexDD(0.0)
        for a in coefficients:
            deriv = deriv.mul_complex(z).add(value)
            value = value.mul_complex(z).add_complex(a)

    with ``two_prod``, ``dd_mul_double``, ``dd_add`` and ``dd_add_double``
    written out inline.  The splits of ``z.real``, ``z.imag`` and
    ``-z.imag`` are hoisted out of the loop (``-z.imag`` is split directly,
    so signed zeros come out as ``two_prod`` would give them), and each
    accumulator part is split once per step for its two products.  The
    ``two_prod`` guards are kept per product: a factor beyond
    ``_SPLIT_LIMIT`` or a non-finite product contributes no error term.
    The caller checks ``z`` and the results for finiteness.
    """
    S, L, INF = _SPLITTER, _SPLIT_LIMIT, math.inf
    zr, zi = z.real, z.imag
    nzi = -zi
    zr_ok = abs(zr) <= L
    zi_ok = abs(zi) <= L
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
        x_ok = -L <= dr <= L
        y_ok = -L <= di <= L

        p = dr * zr
        e = (((xh * zrh - p) + xh * zrt) + xt * zrh) + xt * zrt \
            if x_ok and zr_ok and -INF < p < INF else 0.0
        e = e + drl * zr
        ph = p + e
        pl = e - (ph - p)
        p = di * nzi
        e = (((yh * nzih - p) + yh * nzit) + yt * nzih) + yt * nzit \
            if y_ok and zi_ok and -INF < p < INF else 0.0
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
        e = (((xh * zih - p) + xh * zit) + xt * zih) + xt * zit \
            if x_ok and zi_ok and -INF < p < INF else 0.0
        e = e + drl * zi
        ph = p + e
        pl = e - (ph - p)
        p = di * zr
        e = (((yh * zrh - p) + yh * zrt) + yt * zrh) + yt * zrt \
            if y_ok and zr_ok and -INF < p < INF else 0.0
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
        x_ok = -L <= vr <= L
        y_ok = -L <= vi <= L

        p = vr * zr
        e = (((xh * zrh - p) + xh * zrt) + xt * zrh) + xt * zrt \
            if x_ok and zr_ok and -INF < p < INF else 0.0
        e = e + vrl * zr
        ph = p + e
        pl = e - (ph - p)
        p = vi * nzi
        e = (((yh * nzih - p) + yh * nzit) + yt * nzih) + yt * nzit \
            if y_ok and zi_ok and -INF < p < INF else 0.0
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
        e = (((xh * zih - p) + xh * zit) + xt * zih) + xt * zit \
            if x_ok and zi_ok and -INF < p < INF else 0.0
        e = e + vrl * zi
        ph = p + e
        pl = e - (ph - p)
        p = vi * zr
        e = (((yh * zrh - p) + yh * zrt) + yt * zrh) + yt * zrt \
            if y_ok and zr_ok and -INF < p < INF else 0.0
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
