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
same order, so its finite results are bitwise the loop's.  One degree-6
evaluation takes about 20 us, against 50-65 us for that loop (best of
7 x 2,000 calls; CPython 3.11, shared Xeon).
"""

from __future__ import annotations

from typing import Sequence

_SPLITTER = 134217729.0  # 2**27 + 1

# Dekker's split overflows once |a| * _SPLITTER exceeds the binary64 range;
# a factor beyond this magnitude takes the uncompensated product (the
# compensation term is meaningless that close to overflow anyway).
_SPLIT_LIMIT = 2.0 ** 996


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
    products.  The
    ``_SPLIT_LIMIT`` guard of ``two_prod`` is kept per product: a factor
    beyond it contributes no error term.  Its other guard, for a
    non-finite product, is left out: once a product is inf or nan, +, -
    and * keep the accumulators non-finite, so a result it would change
    is non-finite either way.  The caller checks ``z`` and the results
    for finiteness.
    """
    S, L = _SPLITTER, _SPLIT_LIMIT
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
            if x_ok and zr_ok else 0.0
        e = e + drl * zr
        ph = p + e
        pl = e - (ph - p)
        p = di * nzi
        e = (((yh * nzih - p) + yh * nzit) + yt * nzih) + yt * nzit \
            if y_ok and zi_ok else 0.0
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
            if x_ok and zi_ok else 0.0
        e = e + drl * zi
        ph = p + e
        pl = e - (ph - p)
        p = di * zr
        e = (((yh * zrh - p) + yh * zrt) + yt * zrh) + yt * zrt \
            if y_ok and zr_ok else 0.0
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
            if x_ok and zr_ok else 0.0
        e = e + vrl * zr
        ph = p + e
        pl = e - (ph - p)
        p = vi * nzi
        e = (((yh * nzih - p) + yh * nzit) + yt * nzih) + yt * nzit \
            if y_ok and zi_ok else 0.0
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
            if x_ok and zi_ok else 0.0
        e = e + vrl * zi
        ph = p + e
        pl = e - (ph - p)
        p = vi * zr
        e = (((yh * zrh - p) + yh * zrt) + yt * zrh) + yt * zrt \
            if y_ok and zr_ok else 0.0
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
