"""Simultaneous fourth-order root refinement for known multiplicities.

The generalized step updates every approximation at once from the values
of the polynomial and its first derivative only; with all multiplicities
equal to 1 it coincides with the classic simple-root formula, which is
also provided.  An outer loop adds collision guards, freezing of
converged components, and a full per-iteration trace.
"""

from __future__ import annotations

import enum
import math
from itertools import chain
from math import isfinite
from typing import Optional, Sequence

from ._record import Record, set_field
from .errors import (
    CollisionError,
    NonFiniteError,
    ResidualZeroError,
    SingularDenominatorError,
)
from .polynomial import (
    MonicPolynomial,
    eval_with_derivative,
    integer_power,
    require_finite,
)
from .rootsystem import _as_multiplicity, _collision_limit, _first_collision

DEFAULT_MAX_ITERATIONS = 100
DEFAULT_STEP_TOLERANCE = 1e-14
DEFAULT_RESIDUAL_TOLERANCE = 1e-12

#: A correction denominator with magnitude at or below
#: ``1e-300 * max(1, alpha_i)`` is reported as singular.
SINGULAR_DENOMINATOR_FLOOR = 1e-300


class UpdateMode(enum.Enum):
    """How a sweep uses the vector it is updating.

    TOTAL_STEP (Jacobi) computes every component from the full previous
    vector, exactly as the update formula is written.  SERIAL
    (Gauss-Seidel) reuses already-updated components within the sweep; it
    is provided as an experimental alternative without a convergence
    guarantee of its own.

    Either way a sweep evaluates each point once and reuses its (A, A')
    pair for every later use in that sweep.  With ``a`` active components
    out of ``m`` a TOTAL_STEP sweep makes ``a`` evaluations; a SERIAL sweep
    makes ``2a - 1``, one more for each component that has moved.  `solve`
    then evaluates the ``a`` updated components once more for their
    residuals and carries the residual of each frozen one, so one of its
    sweeps costs ``2a`` evaluation calls in TOTAL_STEP mode and ``3a - 1``
    in SERIAL mode.  A call at a point evaluated before in the solve (the
    next sweep's call at each residual's point, a serial sweep's residual
    call at a moved component, a component that did not move) returns the
    pair `eval_with_derivative` kept for it, at the cost of one dictionary
    probe; so a solve makes one Horner pass per distinct point.

    A TOTAL_STEP sweep makes one build of the deflation kernel, which
    checks the pairs for collisions and forms the deflation sum and product
    of every active row; a SERIAL sweep builds before each update, but
    forms again only the row and column of the component that moved.
    """

    TOTAL_STEP = "total"
    SERIAL = "serial"


class SolveConfig(Record):
    """Settings of one `solve` run, and of the steps it makes.

    ``max_iterations`` (default 100) caps the number of sweeps.  A
    component freezes once its residual |A(x_i)| is at or below
    ``residual_tolerance`` (default 1e-12), and the run converges once
    every component is frozen or the largest step is at or below
    ``step_tolerance`` (default 1e-14).  ``update_mode`` (default
    `UpdateMode.TOTAL_STEP`) selects the sweep order.

    ValueError is raised for a ``max_iterations`` that is not an int
    (bools, floats such as 3.0) or is below 1; for a tolerance that is a
    bool, not above 0, or not a finite binary64 number (inf, nan,
    10**400); and for an ``update_mode`` that is not an `UpdateMode`.

    Collisions follow one fixed rule, not a setting: two approximations
    within ``1e-12 * max(1, max|x_i|)`` of each other are one point in
    binary64, and the run stops with `SolveStatus.COLLISION`.
    """

    max_iterations: int
    step_tolerance: float
    residual_tolerance: float
    update_mode: UpdateMode

    def __init__(
        self,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        step_tolerance: float = DEFAULT_STEP_TOLERANCE,
        residual_tolerance: float = DEFAULT_RESIDUAL_TOLERANCE,
        update_mode: UpdateMode = UpdateMode.TOTAL_STEP,
    ) -> None:
        if not isinstance(max_iterations, int) or isinstance(max_iterations, bool):
            raise ValueError(
                f"max_iterations must be an integer, got {max_iterations!r}"
            )
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name, value in (("step_tolerance", step_tolerance),
                            ("residual_tolerance", residual_tolerance)):
            if isinstance(value, bool) or not (
                    0.0 < value < math.inf and _is_positive_binary64(value)):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        if not isinstance(update_mode, UpdateMode):
            raise ValueError(f"update_mode must be an UpdateMode, got {update_mode!r}")
        set_field(self, "max_iterations", max_iterations)
        set_field(self, "step_tolerance", step_tolerance)
        set_field(self, "residual_tolerance", residual_tolerance)
        set_field(self, "update_mode", update_mode)


def _is_positive_binary64(value) -> bool:
    # 0 < 10**400 < inf holds for the int, yet no binary64 number is that
    # large: float() raises OverflowError for it, and rounds a Decimal or
    # Fraction beyond the range to inf or 0.0.
    try:
        return 0.0 < float(value) < math.inf
    except OverflowError:
        return False


class SolveStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    COLLISION = "Collision"
    SINGULAR_DENOMINATOR = "SingularDenominator"
    OVERFLOW = "Overflow"


class TraceRecord(Record):
    """State after iteration k (k = 0 is the initial vector).

    ``steps`` holds per-index |x_i^[k] - x_i^[k-1]| and is None on the
    initial record, where no step exists.
    """

    k: int
    values: tuple[complex, ...]
    residuals: tuple[float, ...]
    steps: Optional[tuple[float, ...]]
    frozen: tuple[bool, ...]

    def __init__(
        self,
        k: int,
        values: tuple[complex, ...],
        residuals: tuple[float, ...],
        steps: Optional[tuple[float, ...]],
        frozen: tuple[bool, ...],
    ) -> None:
        set_field(self, "k", k)
        set_field(self, "values", values)
        set_field(self, "residuals", residuals)
        set_field(self, "steps", steps)
        set_field(self, "frozen", frozen)


class SolveReport(Record):
    """Outcome of `solve`: ``trace`` holds one `TraceRecord` per sweep,
    the initial vector's record (k = 0) first."""

    status: SolveStatus
    final: tuple[complex, ...]
    iterations_used: int
    trace: tuple[TraceRecord, ...]

    def __init__(
        self,
        status: SolveStatus,
        final: tuple[complex, ...],
        iterations_used: int,
        trace: tuple[TraceRecord, ...],
    ) -> None:
        set_field(self, "status", status)
        set_field(self, "final", final)
        set_field(self, "iterations_used", iterations_used)
        set_field(self, "trace", trace)

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


def _as_vector(values: Sequence[complex]) -> tuple[complex, ...]:
    vec = tuple(complex(v) for v in values)
    for v in vec:
        require_finite(v, "approximation")
    return vec


def _check_collisions(values, frozen=None):
    # CollisionError, naming the first colliding pair of ``values`` that is
    # not a pair of two ``frozen`` indices: either feeds a 1/(x_i - x_j).
    limit = _collision_limit(values)
    pair = _first_collision(values, limit, frozen)
    if pair is not None:
        j, i = pair
        raise CollisionError(
            f"approximations {j} and {i} are within {limit:.3e} "
            f"of each other: {values[j]!r} ~ {values[i]!r}"
        )


def q_log_derivative(
    values: Sequence[complex],
    multiplicities: Sequence[int],
    index: int,
) -> complex:
    """Logarithmic derivative of the deflating product at one index.

    Returns sum over j != index of alpha_j / (x_index - x_j); the empty
    sum (single approximation) is 0.  CollisionError is raised where two
    approximations collide under the solver's fixed rule (within
    ``1e-12 * max(1, max|x_i|)`` of each other), with the solver's message:
    the pairs that involve ``index`` go through the solver's own scan.
    The sum is reduced from the same row of pair terms as `q_product`, so
    the powers (x_index - x_j)**alpha_j are formed too, and NonFiniteError
    is raised where one of them overflows binary64 (both steps raise there
    as well).  ValueError is raised for an ``index`` outside
    ``range(len(values))`` (such as -1 or 1.5) and for one multiplicity too
    many or too few; the same holds for `q_product` and `s_value`.
    """
    return _deflation(values, multiplicities, index)[0]


def q_product(
    values: Sequence[complex],
    multiplicities: Sequence[int],
    index: int,
) -> complex:
    """Deflating product prod_{l != index} (x_index - x_l)^alpha_l.

    The empty product (single approximation) is 1.
    """
    prod = _deflation(values, multiplicities, index)[1]
    return require_finite(prod, "deflating product")


def _deflation(values, multiplicities, index):
    # The deflation sum and product at one index, from its row of pair terms.
    # Only pairs that involve ``index`` are checked: every other index is
    # taken as frozen.
    vec = _checked_index(values, multiplicities, index)
    _check_collisions(vec, [j != index for j in range(len(vec))])
    return _row_sums(vec, multiplicities, index)


def _checked_index(values, multiplicities, index):
    # ``values`` as a vector, once ``index`` and the multiplicities fit it.
    vec = _as_vector(values)
    _require_count(len(vec), len(multiplicities), "multiplicities")
    if index not in range(len(vec)):  # False for -1 and for 1.5
        raise ValueError(f"index {index!r} out of range for {len(vec)} approximations")
    return vec


def _require_count(m, count, name):
    if count != m:
        raise ValueError(f"{m} approximations but {count} {name}")


def _frozen_flags(frozen, m):
    # The frozen flags of ``m`` approximations; None freezes none.
    flags = (False,) * m if frozen is None else tuple(bool(f) for f in frozen)
    _require_count(m, len(flags), "frozen flags")
    return flags


def s_value(
    poly: MonicPolynomial,
    values: Sequence[complex],
    multiplicities: Sequence[int],
    index: int,
) -> complex:
    """Multiplicity-deflated logarithmic derivative A'/A - Q'/Q at one index.

    Undefined where the residual |A(x_index)| is at or below
    `DEFAULT_RESIDUAL_TOLERANCE` (1e-12); such an index should be frozen by
    the caller (ResidualZeroError is raised to say so).  Q'/Q is
    `q_log_derivative`, with its errors, collisions under the fixed rule
    among them.
    """
    vec = _checked_index(values, multiplicities, index)
    value, deriv = eval_with_derivative(poly, vec[index])
    if abs(value) <= DEFAULT_RESIDUAL_TOLERANCE:
        raise ResidualZeroError(index, abs(value))
    return deriv / value - q_log_derivative(vec, multiplicities, index)


def build_step_workspace(
    poly: MonicPolynomial,
    values: Sequence[complex],
    multiplicities: Sequence[int],
    frozen: Optional[Sequence[bool]] = None,
    config: Optional[SolveConfig] = None,
) -> tuple[list[Optional[complex]], list[tuple]]:
    """What the generalized update reads, formed by one kernel build.

    Returns ``(s_values, terms)``.  ``s_values`` is indexed like
    ``values`` and holds the deflated logarithmic derivative s_j
    (`s_value`) of each active index.  A frozen index carries None, and so
    does an index whose residual is at or below the residual tolerance
    (an exact landing not yet frozen by the caller): its own update is
    impossible.  ``terms`` holds ``(j, numer_j, qprod_j, x_j)`` for each
    index j with an s-value, where numer_j = alpha_j A_j
    (s_j / alpha_j)**(alpha_j - 1) and qprod_j is j's deflating product
    (`q_product`); it is empty unless two indices are active.  The update
    of index i forms its correction sum from them,
    sum over j != i of numer_j / (qprod_j (x_j - x_i)**2); an index
    without an s-value adds its analytic limit 0 there.  The work of a
    build is described under `UpdateMode`.
    """
    cfg = config or SolveConfig()
    vec = _as_vector(values)
    m = len(vec)
    flags = _frozen_flags(frozen, m)
    return _gek_terms(poly, vec, multiplicities, flags, cfg, [None] * m, None)


def _power(base, exponent):
    # base**exponent for an int exponent >= 0, bitwise `integer_power`'s:
    # for exponents up to 100 CPython's complex ** runs the same binary
    # powering (c_powu: the same products, in the same order, from 1 + 0j)
    # and raises OverflowError where a part is infinite.  Larger exponents,
    # and powers that are not finite, go to `integer_power`, which raises
    # its own NonFiniteError there.  Used by the serial table (`_pair_term`,
    # so `_row`, which is also `_row_sums`' reference path) and by the
    # correction-sum numerators of `_gek_terms`; `_row_sums` forms the
    # same powers inline.
    if exponent <= 100:
        try:
            power = base ** exponent
        except OverflowError:
            pass
        else:
            if isfinite(power.real) and isfinite(power.imag):
                return power
    return integer_power(base, exponent)


def _pair_term(x_j, x_l, alpha_l):
    # The deflation terms of the ordered pair (j, l): with d = x_j - x_l,
    # the log-derivative term alpha_l / d and the product factor d**alpha_l,
    # which is d itself for a simple root (d ** 1 = (1 + 0j) * d can differ
    # from d in the sign of a zero part).
    d = x_j - x_l
    return alpha_l / d, d if alpha_l == 1 else _power(d, alpha_l)


def _row(vec, multiplicities, j):
    # Row j of the pair-term table: the `_pair_term` of (j, l) for every
    # l != j, in order of l.  Callers check the pairs for collisions first.
    x_j = vec[j]
    return [_pair_term(x_j, vec[l], multiplicities[l])
            for l in range(len(vec)) if l != j]


def _reduce_row(row):
    # The deflation sum and product of a row, summed and multiplied in order.
    qlog = complex(0.0)
    qprod = complex(1.0)
    for term, power in row:
        qlog += term
        qprod *= power
    return qlog, qprod


def _row_sums(vec, multiplicities, j):
    # `_reduce_row` of `_row` j, formed in one loop with no table: the same
    # sums and products in the same order, each power formed inline as
    # `_power` forms it where it is finite, so the same bits.  A power that
    # is not finite raises here (OverflowError, or integer_power's
    # NonFiniteError) or leaves qprod non-finite, since a complex product
    # with a non-finite factor stays non-finite.  Either way, as on any
    # other arithmetic error, the row is formed again on that reference
    # path, which raises the same first error.
    x_j = vec[j]
    qlog = complex(0.0)
    qprod = complex(1.0)
    try:
        for l in chain(range(j), range(j + 1, len(vec))):
            d = x_j - vec[l]
            alpha = multiplicities[l]
            qlog += alpha / d
            qprod *= (d if alpha == 1 else d ** alpha if alpha <= 100
                      else integer_power(d, alpha))
    except (ArithmeticError, NonFiniteError):
        pass
    else:
        if isfinite(qprod.real) and isfinite(qprod.imag):
            return qlog, qprod
    return _reduce_row(_row(vec, multiplicities, j))


def _deflate(poly, vec, multiplicities, flags, evals, rows, moved=None):
    """The deflation kernel of both steps, at ``vec``.

    Returns, per index, None for a frozen one and ``(pair, qlog, qprod)``
    for an active one: its (A, A') pair, the deflation sum
    sum_{l != j} alpha_l / (x_j - x_l) and the deflating product
    prod_{l != j} (x_j - x_l)**alpha_l.

    Every build first checks the pairs for collisions (`_check_collisions`:
    a screen by real part in front of the full scan, pairs of two frozen
    indices skipped, by the screen too).  The pair terms of (j, l) are alpha_l / (x_j - x_l)
    and (x_j - x_l)**alpha_l: one complex ``**`` where alpha_l > 1, none
    for a simple root (the simple-root step runs here with every
    multiplicity 1).  Complex ``**`` with an exponent up to 100 has the
    bits of `integer_power` (CPython runs the same binary powering), and
    beyond 100 the kernel calls `integer_power` itself.

    With ``rows`` None (a total sweep) no table is kept, and each active
    row is formed and reduced by `_row_sums`, with its powers inline and
    no call per pair.  Otherwise ``rows[j]`` is `_row` j of the table for
    an active j.  With ``moved`` None every active row is built, the terms
    of a(m - 1) ordered pairs for ``a`` active indices out of ``m``.
    Otherwise the table was filled at a vector that differs from ``vec``
    in component ``moved`` alone, and only row ``moved`` and column
    ``moved`` are refreshed, (m - 1) + (a - 1) pairs.  Either way each
    active row is then reduced in full, in order of l, so sums and
    products are rounded exactly as in a full build.  Unchanged pair terms
    raised nothing when they were formed, so errors come in the order of a
    full build too.

    ``evals[j]`` is index j's (A, A') pair or None; the pairs of active
    indices are evaluated where missing, in order of j, and stored back.
    """
    _check_collisions(vec, flags)
    kernel: list[Optional[tuple]] = [None] * len(vec)
    for j in range(len(vec)):
        if flags[j]:
            continue
        pair = evals[j]
        if pair is None:
            pair = evals[j] = eval_with_derivative(poly, vec[j])
        if rows is None:
            qlog, qprod = _row_sums(vec, multiplicities, j)
        else:
            if moved is None or moved == j:
                row = rows[j] = _row(vec, multiplicities, j)
            else:
                row = rows[j]  # no entry for l == j, so l > j sits at l - 1
                row[moved - (moved > j)] = _pair_term(vec[j], vec[moved],
                                                      multiplicities[moved])
            qlog, qprod = _reduce_row(row)
        if not (isfinite(qprod.real) and isfinite(qprod.imag)):
            require_finite(qprod, "deflating product")
        kernel[j] = pair, qlog, qprod
    return kernel


def _neighbour_sum(vec, i, terms):
    # sum over the terms (j, numer, qprod_j, x_j) with j != i of
    # numer / (qprod_j (x_j - x_i)**2): the correction sum of the
    # generalized step and the neighbour sum of the simple-root step.
    x_i = vec[i]
    total = complex(0.0)
    for j, numer, qprod, x_j in terms:
        if j != i:
            diff = x_j - x_i
            total += numer / (qprod * diff * diff)
    return total


def _gek_terms(poly, vec, multiplicities, flags, cfg, evals, rows, moved=None):
    # `build_step_workspace`'s pair at ``vec``, from `_deflate` with the
    # same arguments.  Numerators of the correction-sum terms depend on j
    # alone.  A term is only used by another active index, so none is
    # formed unless at least two indices are active.
    kernel = _deflate(poly, vec, multiplicities, flags, evals, rows, moved)
    two_active = len(vec) - sum(flags) >= 2
    svals: list[Optional[complex]] = [None] * len(vec)
    terms = []
    for j, entry in enumerate(kernel):
        if entry is None:
            continue
        (value, deriv), qlog, qprod = entry
        if abs(value) <= cfg.residual_tolerance:
            continue
        s_j = svals[j] = deriv / value - qlog
        if two_active:
            alpha_j = multiplicities[j]
            numer = alpha_j * value * _power(s_j / alpha_j, alpha_j - 1)
            terms.append((j, numer, qprod, vec[j]))
    return svals, terms


def _serial_sweep(vec, flags, prepare, update):
    """One SERIAL sweep, driving either step kind.

    Before each active component moves, ``prepare(current, evals, rows,
    moved)`` forms the step's quantities at the current vector, reusing
    the (A, A') pairs in ``evals`` and the pair-term table in ``rows``
    (see `_deflate`); ``update(current, prepared, i)`` then returns the
    new x_i.  Only the moved component is evaluated again.  Each build
    checks every pair for collisions, so errors are those of building from
    scratch before each update.
    """
    m = len(vec)
    current = list(vec)
    evals = [None] * m
    rows = [None] * m
    moved = None
    for i in range(m):
        if flags[i]:
            continue
        prepared = prepare(current, evals, rows, moved)
        current[i] = update(current, prepared, i)
        evals[i] = None
        moved = i
    return tuple(current)


def _corrected(vec, index, numer, den, floor):
    # The tail of both updates: x_i - numer / den, unless |den| <= floor.
    if abs(den) <= floor:
        raise SingularDenominatorError(
            f"denominator {abs(den):.3e} at index {index} is numerically zero"
        )
    new = vec[index] - numer / den
    if not (isfinite(new.real) and isfinite(new.imag)):
        require_finite(new, f"updated approximation {index}")
    return new


def _gek_update(vec, multiplicities, prepared, index):
    # ``prepared`` is a `build_step_workspace` pair at ``vec``.  The sum is
    # checked before the s-value, so the faults of one index still come in
    # the order they had when every sum was formed ahead of the updates.
    s_values, terms = prepared
    correction = _neighbour_sum(vec, index, terms)
    if not (isfinite(correction.real) and isfinite(correction.imag)):
        require_finite(correction, "correction sum")
    s_i = s_values[index]
    if s_i is None:
        raise ResidualZeroError(index, 0.0)
    alpha_i = multiplicities[index]
    return _corrected(vec, index, alpha_i, s_i + correction,
                      SINGULAR_DENOMINATOR_FLOOR * max(1.0, alpha_i))


def gek_step(
    poly: MonicPolynomial,
    values: Sequence[complex],
    multiplicities: Sequence[int],
    config: Optional[SolveConfig] = None,
    frozen: Optional[Sequence[bool]] = None,
) -> tuple[complex, ...]:
    """One sweep of the generalized fourth-order simultaneous update.

    Each component moves by `alpha_i` over the deflated logarithmic
    derivative plus its correction sum; frozen components are copied
    through bitwise unchanged.  Each update reads the s-value and the
    correction-sum terms of `build_step_workspace` and forms its own
    correction sum.  The evaluations and the work of a sweep are described
    under `UpdateMode`.

    Parameters
    ----------
    poly : MonicPolynomial
        Monic polynomial whose degree equals sum(multiplicities).
    values : sequence of complex
        Current approximations, one per distinct root.
    multiplicities : sequence of int
        Known multiplicity of each root.
    config : SolveConfig, optional
        Supplies tolerances and the update mode; defaults apply when None.
    frozen : sequence of bool, optional
        Components to exclude from updating, one flag per approximation;
        defaults to all active.

    Returns
    -------
    tuple of complex
        The updated approximation vector.

    Raises
    ------
    CollisionError, SingularDenominatorError, NonFiniteError,
    ResidualZeroError
        Guard failures; `solve` maps these to report statuses.
    ValueError
        For multiplicities or frozen flags that do not fit the problem.
    """
    cfg = config or SolveConfig()
    vec = _as_vector(values)
    m = len(vec)
    _validate_problem(poly, multiplicities, m)
    flags = _frozen_flags(frozen, m)

    def prepare(current, evals, rows, moved):
        return _gek_terms(poly, current, multiplicities, flags, cfg,
                          evals, rows, moved)

    def update(current, prepared, i):
        return _gek_update(current, multiplicities, prepared, i)

    if cfg.update_mode is UpdateMode.SERIAL:
        return _serial_sweep(vec, flags, prepare, update)
    prepared = build_step_workspace(poly, vec, multiplicities, flags, cfg)
    return tuple(vec[i] if flags[i] else update(vec, prepared, i) for i in range(m))


def _ek_update(vec, prepared, index):
    # ``prepared`` is a `_deflate` result at ``vec`` and the neighbour-sum
    # terms (j, A_j, w_j, x_j) of its active indices.
    kernel, terms = prepared
    (value, deriv), wlog, _ = kernel[index]
    den = deriv - value * wlog + value * _neighbour_sum(vec, index, terms)
    return _corrected(vec, index, value, den, SINGULAR_DENOMINATOR_FLOOR)


def ek_step(
    poly: MonicPolynomial,
    values: Sequence[complex],
    config: Optional[SolveConfig] = None,
    frozen: Optional[Sequence[bool]] = None,
) -> tuple[complex, ...]:
    """One sweep of the simple-root fourth-order simultaneous update.

    All roots are treated as simple, so the vector length must equal the
    polynomial degree.  With unit multiplicities this agrees with
    `gek_step` up to rounding.  Mode and freezing semantics match
    `gek_step`; an exact-root component is harmless here (its own
    correction degenerates to Newton's and vanishes).  The step runs on
    the deflation kernel of `gek_step` with every multiplicity 1, where
    the deflation sum is sum_{l != j} 1 / (x_j - x_l) and the deflating
    product w_j = prod_{l != j} (x_j - x_l); each update forms its own
    neighbour sum, sum_{j != i} A_j / (w_j (x_j - x_i)**2).  The
    evaluations and the work of a sweep are described under `UpdateMode`.
    """
    cfg = config or SolveConfig()
    vec = _as_vector(values)
    m = len(vec)
    if m != poly.degree:
        raise ValueError(
            f"simple-root step needs one approximation per degree: "
            f"{m} values for degree {poly.degree}"
        )
    flags = _frozen_flags(frozen, m)
    ones = (1,) * m

    def prepare(current, evals, rows, moved):
        kernel = _deflate(poly, current, ones, flags, evals, rows, moved)
        terms = [(j, entry[0][0], entry[2], current[j])
                 for j, entry in enumerate(kernel) if entry is not None]
        return kernel, terms

    if cfg.update_mode is UpdateMode.SERIAL:
        return _serial_sweep(vec, flags, prepare, _ek_update)
    prepared = prepare(vec, [None] * m, None, None)
    return tuple(vec[i] if flags[i] else _ek_update(vec, prepared, i) for i in range(m))


def _validate_problem(poly, multiplicities, m):
    _require_count(m, len(multiplicities), "multiplicities")
    for a in multiplicities:
        if _as_multiplicity(a) < 1:
            raise ValueError(f"multiplicities must be positive integers, got {a!r}")
    if sum(multiplicities) != poly.degree:
        raise ValueError(
            f"multiplicities sum to {sum(multiplicities)} but the polynomial "
            f"degree is {poly.degree}"
        )


def _residual_magnitude(poly, z):
    try:
        value, _ = eval_with_derivative(poly, z)
    except NonFiniteError:
        return float("inf")
    return abs(value)


def solve(
    poly: MonicPolynomial,
    multiplicities: Sequence[int],
    initial: Sequence[complex],
    config: Optional[SolveConfig] = None,
    *,
    use_simple_step: bool = False,
) -> SolveReport:
    """Iterate the simultaneous update until convergence or failure.

    Components whose residual |A(x_i)| is at or below the residual
    tolerance are frozen before each sweep and copied through afterwards;
    the run converges when every component is frozen or the largest step
    is at or below the step tolerance.  Tolerances are checked after each
    sweep, before the iteration budget, so a run that converges on its
    last allowed sweep reports Converged.  A vector that meets them with
    two approximations within the collision limit of each other (frozen
    ones included) reports Collision instead.

    The starting vector costs ``m`` evaluation calls.  A sweep with ``a``
    components active costs its step's calls (see `UpdateMode`) plus ``a``
    for the residuals of the updated components.  A frozen component is
    copied through the sweep bitwise unchanged, so its residual is carried
    from the record before instead of evaluated again.  Only a call at a
    new point costs a Horner pass; a repeated point costs a dictionary
    probe for the pair kept by `eval_with_derivative`.

    Parameters
    ----------
    poly : MonicPolynomial
    multiplicities : sequence of int
        Known multiplicities; their sum must equal the degree.
    initial : sequence of complex
        Starting approximations, one per distinct root (caller-supplied;
        no automatic initialization is attempted).
    config : SolveConfig, optional
    use_simple_step : bool
        Use the simple-root formula instead of the generalized one;
        requires every multiplicity to be 1.  The default generalized
        step is equivalent there up to rounding.

    Returns
    -------
    SolveReport
        Status, final vector, iterations used, and the full trace.
        Numerical guard failures are reported as statuses; only input
        validation raises.
    """
    cfg = config or SolveConfig()
    vec = _as_vector(initial)
    m = len(vec)
    _validate_problem(poly, multiplicities, m)
    mults = tuple(int(a) for a in multiplicities)
    if use_simple_step and any(a != 1 for a in mults):
        raise ValueError("use_simple_step requires all multiplicities equal to 1")

    residuals = tuple(_residual_magnitude(poly, v) for v in vec)
    frozen = tuple(r <= cfg.residual_tolerance for r in residuals)
    records = [TraceRecord(0, vec, residuals, None, frozen)]

    def report(status, iterations):
        return SolveReport(
            status=status,
            final=vec,
            iterations_used=iterations,
            trace=tuple(records),
        )

    def converged(iterations):
        # A sweep skips the pairs of frozen components, so the reported
        # vector is checked in full: two approximations of one root are
        # a collision, not a convergence.
        try:
            _check_collisions(vec)
        except CollisionError:
            return report(SolveStatus.COLLISION, iterations)
        return report(SolveStatus.CONVERGED, iterations)

    if all(frozen):
        return converged(0)
    if any(not math.isfinite(r) for r in residuals):
        return report(SolveStatus.OVERFLOW, 0)

    for k in range(1, cfg.max_iterations + 1):
        try:
            if use_simple_step:
                new = ek_step(poly, vec, cfg, frozen)
            else:
                new = gek_step(poly, vec, mults, cfg, frozen)
        except CollisionError:
            return report(SolveStatus.COLLISION, k - 1)
        except SingularDenominatorError:
            return report(SolveStatus.SINGULAR_DENOMINATOR, k - 1)
        except NonFiniteError:
            return report(SolveStatus.OVERFLOW, k - 1)

        steps = tuple(abs(new[i] - vec[i]) for i in range(m))
        # a frozen component came through the sweep bitwise unchanged, so
        # its residual is carried rather than evaluated again
        residuals = tuple(
            residuals[i] if frozen[i] else _residual_magnitude(poly, new[i])
            for i in range(m)
        )
        frozen = tuple(
            frozen[i] or residuals[i] <= cfg.residual_tolerance for i in range(m)
        )
        vec = new
        records.append(TraceRecord(k, vec, residuals, steps, frozen))
        if any(not math.isfinite(r) for r in residuals):
            return report(SolveStatus.OVERFLOW, k)
        if all(frozen) or max(steps) <= cfg.step_tolerance:
            return converged(k)

    return report(SolveStatus.MAX_ITERATIONS, cfg.max_iterations)
