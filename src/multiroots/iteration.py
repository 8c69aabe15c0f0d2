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
from dataclasses import dataclass, field
from typing import Optional, Sequence

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
    is_finite,
    require_finite,
)

DEFAULT_MAX_ITERATIONS = 100
DEFAULT_STEP_TOLERANCE = 1e-14
DEFAULT_RESIDUAL_TOLERANCE = 1e-12
#: Relative collision threshold: distances are compared against
#: ``collision_threshold * max(1, max|x_i|)``.  Below that, (x_i - x_j)^-2
#: carries no significance in binary64.
DEFAULT_COLLISION_THRESHOLD = 1e-12

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
    """

    TOTAL_STEP = "total"
    SERIAL = "serial"


@dataclass(frozen=True)
class SolveConfig:
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    step_tolerance: float = DEFAULT_STEP_TOLERANCE
    residual_tolerance: float = DEFAULT_RESIDUAL_TOLERANCE
    collision_threshold: float = DEFAULT_COLLISION_THRESHOLD
    update_mode: UpdateMode = UpdateMode.TOTAL_STEP

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("step_tolerance", "residual_tolerance", "collision_threshold"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        if not isinstance(self.update_mode, UpdateMode):
            raise ValueError(f"update_mode must be an UpdateMode, got {self.update_mode!r}")


class SolveStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    COLLISION = "Collision"
    SINGULAR_DENOMINATOR = "SingularDenominator"
    OVERFLOW = "Overflow"


@dataclass(frozen=True)
class TraceRecord:
    """State after iteration k (k = 0 is the initial vector).

    ``steps`` holds per-index |x_i^[k] - x_i^[k-1]| and is None on the
    initial record, where no step exists.
    """

    k: int
    values: tuple[complex, ...]
    residuals: tuple[float, ...]
    steps: Optional[tuple[float, ...]]
    frozen: tuple[bool, ...]


@dataclass(frozen=True)
class IterationTrace:
    records: tuple[TraceRecord, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, k: int) -> TraceRecord:
        return self.records[k]


@dataclass(frozen=True)
class SolveReport:
    status: SolveStatus
    final: tuple[complex, ...]
    iterations_used: int
    trace: IterationTrace

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


def _as_vector(values: Sequence[complex]) -> tuple[complex, ...]:
    vec = tuple(complex(v) for v in values)
    for v in vec:
        require_finite(v, "approximation")
    return vec


def _collision_limit(values: Sequence[complex], threshold: float) -> float:
    return threshold * max(1.0, max(abs(v) for v in values))


def _check_collisions(values, frozen, limit):
    # Pairs of frozen indices are inert; everything else feeds a 1/(xi-xj).
    m = len(values)
    for i in range(m):
        for j in range(i):
            if frozen[i] and frozen[j]:
                continue
            if abs(values[i] - values[j]) <= limit:
                raise CollisionError(
                    f"approximations {j} and {i} are within {limit:.3e} "
                    f"of each other: {values[j]!r} ~ {values[i]!r}"
                )


def q_log_derivative(
    values: Sequence[complex],
    multiplicities: Sequence[int],
    index: int,
    *,
    collision_threshold: float = DEFAULT_COLLISION_THRESHOLD,
) -> complex:
    """Logarithmic derivative of the deflating product at one index.

    Returns sum over j != index of alpha_j / (x_index - x_j); the empty
    sum (single approximation) is 0.
    """
    vec = _as_vector(values)
    limit = _collision_limit(vec, collision_threshold)
    total = complex(0.0)
    for j in range(len(vec)):
        if j == index:
            continue
        diff = vec[index] - vec[j]
        if abs(diff) <= limit:
            raise CollisionError(
                f"approximations {index} and {j} are within {limit:.3e}"
            )
        total += multiplicities[j] / diff
    return total


def q_product(
    values: Sequence[complex],
    multiplicities: Sequence[int],
    index: int,
    *,
    collision_threshold: float = DEFAULT_COLLISION_THRESHOLD,
) -> complex:
    """Deflating product prod_{l != index} (x_index - x_l)^alpha_l.

    The empty product (single approximation) is 1.
    """
    vec = _as_vector(values)
    limit = _collision_limit(vec, collision_threshold)
    prod = complex(1.0)
    for l in range(len(vec)):
        if l == index:
            continue
        diff = vec[index] - vec[l]
        if abs(diff) <= limit:
            raise CollisionError(
                f"approximations {index} and {l} are within {limit:.3e}"
            )
        prod *= integer_power(diff, multiplicities[l])
    require_finite(prod, "deflating product")
    return prod


def s_value(
    poly: MonicPolynomial,
    values: Sequence[complex],
    multiplicities: Sequence[int],
    index: int,
    *,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOLERANCE,
    collision_threshold: float = DEFAULT_COLLISION_THRESHOLD,
) -> complex:
    """Multiplicity-deflated logarithmic derivative A'/A - Q'/Q at one index.

    Undefined where the residual |A(x_index)| is at or below
    ``residual_tolerance``; such an index should be frozen by the caller
    (ResidualZeroError is raised to say so).
    """
    vec = _as_vector(values)
    value, deriv = eval_with_derivative(poly, vec[index])
    if abs(value) <= residual_tolerance:
        raise ResidualZeroError(index, abs(value))
    return deriv / value - q_log_derivative(
        vec, multiplicities, index, collision_threshold=collision_threshold
    )


@dataclass(frozen=True)
class StepWorkspace:
    """Per-index quantities for one total-step sweep.

    Frozen indices carry None in every slot.  ``s_values`` additionally
    holds None for an index whose residual is at or below the residual
    tolerance (an exact landing not yet frozen by the caller): its own
    update is impossible, and its contribution to other indices'
    correction sums is the analytic limit 0.
    """

    a_values: tuple[Optional[complex], ...]
    a_primes: tuple[Optional[complex], ...]
    q_log_derivatives: tuple[Optional[complex], ...]
    s_values: tuple[Optional[complex], ...]
    q_products: tuple[Optional[complex], ...]
    correction_sums: tuple[Optional[complex], ...]


def build_step_workspace(
    poly: MonicPolynomial,
    values: Sequence[complex],
    multiplicities: Sequence[int],
    frozen: Optional[Sequence[bool]] = None,
    config: Optional[SolveConfig] = None,
) -> StepWorkspace:
    """Evaluate every per-index quantity the generalized step needs."""
    cfg = config or SolveConfig()
    vec = _as_vector(values)
    m = len(vec)
    flags = tuple(bool(f) for f in frozen) if frozen is not None else (False,) * m
    limit = _collision_limit(vec, cfg.collision_threshold)
    _check_collisions(vec, flags, limit)

    a_vals: list[Optional[complex]] = [None] * m
    a_primes: list[Optional[complex]] = [None] * m
    qlogs: list[Optional[complex]] = [None] * m
    svals: list[Optional[complex]] = [None] * m
    qprods: list[Optional[complex]] = [None] * m
    for j in range(m):
        if flags[j]:
            continue
        value, deriv = eval_with_derivative(poly, vec[j])
        a_vals[j] = value
        a_primes[j] = deriv
        qlog = complex(0.0)
        qprod = complex(1.0)
        for l in range(m):
            if l == j:
                continue
            diff = vec[j] - vec[l]
            qlog += multiplicities[l] / diff
            qprod *= integer_power(diff, multiplicities[l])
        require_finite(qprod, "deflating product")
        qlogs[j] = qlog
        qprods[j] = qprod
        if abs(value) > cfg.residual_tolerance:
            svals[j] = deriv / value - qlog

    # Numerators of the correction-sum terms depend on j alone.  A term is
    # only used by another active index, so none is formed unless at least
    # two indices are active.
    numers: list[Optional[complex]] = [None] * m
    if m - sum(flags) >= 2:
        for j in range(m):
            if svals[j] is None:
                continue  # landed or frozen index: term has analytic limit 0
            alpha_j = multiplicities[j]
            numers[j] = alpha_j * a_vals[j] * integer_power(svals[j] / alpha_j, alpha_j - 1)

    sums: list[Optional[complex]] = [None] * m
    for i in range(m):
        if flags[i]:
            continue
        total = complex(0.0)
        for j in range(m):
            if j == i or numers[j] is None:
                continue
            diff = vec[j] - vec[i]
            total += numers[j] / (qprods[j] * diff * diff)
        require_finite(total, "correction sum")
        sums[i] = total

    return StepWorkspace(
        a_values=tuple(a_vals),
        a_primes=tuple(a_primes),
        q_log_derivatives=tuple(qlogs),
        s_values=tuple(svals),
        q_products=tuple(qprods),
        correction_sums=tuple(sums),
    )


def _gek_update(vec, multiplicities, workspace, index):
    s_i = workspace.s_values[index]
    if s_i is None:
        raise ResidualZeroError(index, 0.0)
    alpha_i = multiplicities[index]
    den = s_i + workspace.correction_sums[index]
    if abs(den) <= SINGULAR_DENOMINATOR_FLOOR * max(1.0, alpha_i):
        raise SingularDenominatorError(
            f"denominator {abs(den):.3e} at index {index} is numerically zero"
        )
    new = vec[index] - alpha_i / den
    require_finite(new, f"updated approximation {index}")
    return new


def gek_step(
    poly: MonicPolynomial,
    values: Sequence[complex],
    multiplicities: Sequence[int],
    config: Optional[SolveConfig] = None,
    frozen: Optional[Sequence[bool]] = None,
) -> tuple[complex, ...]:
    """One sweep of the generalized fourth-order simultaneous update.

    Each component moves by `alpha_i` over the deflated logarithmic
    derivative corrected with the neighbor sum; frozen components are
    copied through bitwise unchanged.

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
        Components to exclude from updating; defaults to all active.

    Returns
    -------
    tuple of complex
        The updated approximation vector.

    Raises
    ------
    CollisionError, SingularDenominatorError, NonFiniteError,
    ResidualZeroError
        Guard failures; `solve` maps these to report statuses.
    """
    cfg = config or SolveConfig()
    vec = _as_vector(values)
    m = len(vec)
    _validate_problem(poly, multiplicities, m)
    flags = tuple(bool(f) for f in frozen) if frozen is not None else (False,) * m

    if cfg.update_mode is UpdateMode.SERIAL:
        current = list(vec)
        for i in range(m):
            if flags[i]:
                continue
            ws = build_step_workspace(poly, current, multiplicities, flags, cfg)
            current[i] = _gek_update(current, multiplicities, ws, i)
        return tuple(current)

    ws = build_step_workspace(poly, vec, multiplicities, flags, cfg)
    return tuple(
        vec[i] if flags[i] else _gek_update(vec, multiplicities, ws, i)
        for i in range(m)
    )


def _ek_update(poly, vec, index, flags, limit):
    value, deriv = eval_with_derivative(poly, vec[index])
    m = len(vec)
    wlog = complex(0.0)
    for l in range(m):
        if l == index:
            continue
        diff = vec[index] - vec[l]
        if abs(diff) <= limit:
            raise CollisionError(
                f"approximations {index} and {l} are within {limit:.3e}"
            )
        wlog += 1.0 / diff
    neighbor = complex(0.0)
    for j in range(m):
        if j == index or flags[j]:
            continue
        a_j, _ = eval_with_derivative(poly, vec[j])
        w_j = complex(1.0)
        for l in range(m):
            if l != j:
                w_j *= vec[j] - vec[l]
        require_finite(w_j, "simple-root deflating product")
        diff = vec[index] - vec[j]
        neighbor += a_j / (w_j * diff * diff)
    den = deriv - value * wlog + value * neighbor
    if abs(den) <= SINGULAR_DENOMINATOR_FLOOR:
        raise SingularDenominatorError(
            f"denominator {abs(den):.3e} at index {index} is numerically zero"
        )
    new = vec[index] - value / den
    require_finite(new, f"updated approximation {index}")
    return new


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
    correction degenerates to Newton's and vanishes).
    """
    cfg = config or SolveConfig()
    vec = _as_vector(values)
    m = len(vec)
    if m != poly.degree:
        raise ValueError(
            f"simple-root step needs one approximation per degree: "
            f"{m} values for degree {poly.degree}"
        )
    flags = tuple(bool(f) for f in frozen) if frozen is not None else (False,) * m
    limit = _collision_limit(vec, cfg.collision_threshold)
    _check_collisions(vec, flags, limit)

    if cfg.update_mode is UpdateMode.SERIAL:
        current = list(vec)
        for i in range(m):
            if flags[i]:
                continue
            lim = _collision_limit(current, cfg.collision_threshold)
            current[i] = _ek_update(poly, current, i, flags, lim)
        return tuple(current)

    return tuple(
        vec[i] if flags[i] else _ek_update(poly, vec, i, flags, limit)
        for i in range(m)
    )


def _validate_problem(poly, multiplicities, m):
    if len(multiplicities) != m:
        raise ValueError(
            f"{m} approximations but {len(multiplicities)} multiplicities"
        )
    for a in multiplicities:
        if int(a) != a or a < 1:
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
    last allowed sweep reports Converged.

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
            trace=IterationTrace(tuple(records)),
        )

    if all(frozen):
        return report(SolveStatus.CONVERGED, 0)
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
        residuals = tuple(_residual_magnitude(poly, v) for v in new)
        frozen = tuple(
            frozen[i] or residuals[i] <= cfg.residual_tolerance for i in range(m)
        )
        vec = new
        records.append(TraceRecord(k, vec, residuals, steps, frozen))
        if any(not math.isfinite(r) for r in residuals):
            return report(SolveStatus.OVERFLOW, k)
        if all(frozen) or max(steps) <= cfg.step_tolerance:
            return report(SolveStatus.CONVERGED, k)

    return report(SolveStatus.MAX_ITERATIONS, cfg.max_iterations)
