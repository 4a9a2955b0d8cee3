"""Primitive model objects and expected-payoff evaluators.

The electorate is a finite list of voter types, each a bliss-point vector
with a population share. Voters compare two announced platforms under
quadratic policy loss, an aggregate uniform popularity shock tips the
comparison, and each party's payoff is a reduced function of its realized
vote share. Everything downstream (closed-form equilibria, enumeration,
welfare) consumes the evaluators defined here.

All objects are immutable after construction and all functions are pure;
``monte_carlo_payoff`` is deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError

SHARE_SUM_TOL = 1e-12
TIE_TOL = 1e-9


def _as_matrix(bliss) -> np.ndarray:
    pts = np.asarray(bliss, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise PreconditionError(f"bliss points must form an (N, K) array, got shape {pts.shape}")
    return pts


def _read_only(*arrays):
    """``arrays`` (one array when given one), made read-only in place."""
    for a in arrays:
        a.setflags(write=False)
    return arrays if len(arrays) > 1 else arrays[0]


def _raise_failed(checks, *args):
    """Raise the error of the first of ``checks`` that ``args`` fail.

    A check is ``(failed, error, message)``. Each ``failed`` works along the
    last axis, so ``welfare.premium_sweep`` runs the same checks on a block
    of rows at once.
    """
    for failed, error, message in checks:
        if failed(*args):
            raise error(message)


def _first_duplicate_row(pts: np.ndarray):
    """Smallest ``(i, j)``, i first, with ``i < j`` and rows equal under ``==``; else None.

    Rows that compare equal (-0.0 == 0.0; NaN equals nothing) sort next to
    each other, in index order since the sort is stable, so each run of
    equal rows starts with its smallest index and the next row is its
    smallest partner.
    """
    order = np.lexsort(pts.T)
    ranked = pts[order]
    adjacent = np.flatnonzero(np.all(ranked[1:] == ranked[:-1], axis=1))
    if adjacent.size == 0:
        return None
    k = adjacent[np.argmin(order[adjacent])]
    return int(order[k]), int(order[k + 1])


class VoterDistribution:
    """Finite electorate: bliss points (N, K), shares (N,), optional labels.

    Shares must sum to one and bliss points must be pairwise distinct.
    One-dimensional inputs may be passed as a flat list of scalars.

    An electorate keeps what is derived from it (see ``_derived``), so the
    store is freed with the electorate.
    """

    def __init__(self, bliss, shares, labels=None):
        pts = _as_matrix(bliss)
        shr = np.asarray(shares, dtype=float)
        if shr.ndim != 1 or shr.shape[0] != pts.shape[0]:
            raise PreconditionError("shares must be a vector with one entry per type")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise PreconditionError("need at least one type and one policy dimension")
        if not np.all((shr > 0.0) & (shr <= 1.0)):     # NaN fails too
            raise PreconditionError("every share must lie in (0, 1]")
        if abs(shr.sum() - 1.0) > SHARE_SUM_TOL:
            raise PreconditionError(f"shares sum to {shr.sum():.17g}, expected 1")
        duplicate = _first_duplicate_row(pts)
        if duplicate is not None:
            raise PreconditionError("bliss points of types {} and {} coincide".format(*duplicate))
        if not np.all(np.isfinite(pts)):
            raise PreconditionError("bliss points must be finite")
        if labels is None:
            labels = tuple(f"type{i}" for i in range(pts.shape[0]))
        else:
            labels = tuple(str(l) for l in labels)
            if len(labels) != pts.shape[0]:
                raise PreconditionError("labels must match the number of types")
        self.bliss, self.shares = _read_only(pts, shr)
        self.labels = labels
        self._store = {}

    def _derived(self, key, build, *inputs):
        """``build()``, kept as the latest value under ``key`` while ``inputs`` stay equal.

        ``inputs`` are everything besides this electorate that the value
        depends on, compared as a tuple: a payoff object by identity, a
        ``Shock`` by value, platforms by their bytes. A ``build`` that raises
        stores nothing. This relies on electorates and payoffs being
        immutable after construction.
        """
        hit = self._store.get(key)
        if hit is not None and hit[0] == inputs:
            return hit[1]
        value = build()
        self._store[key] = (inputs, value)
        return value

    @property
    def n_types(self) -> int:
        return self.bliss.shape[0]

    @property
    def dimension(self) -> int:
        return self.bliss.shape[1]

    def translate(self, offset) -> "VoterDistribution":
        off = np.asarray(offset, dtype=float).reshape(self.dimension)
        return VoterDistribution(self.bliss + off, self.shares, self.labels)

    def ascending_order(self) -> np.ndarray:
        """Type indices in ascending bliss order (stable); sorted once, read-only."""
        if self.dimension != 1:
            raise DimensionError("ascending_order requires a one-dimensional electorate")
        return self._derived("ascending_order", lambda: _read_only(
            np.argsort(self.bliss[:, 0], kind="stable")))

    def mean_bliss(self) -> np.ndarray:
        return self.shares @ self.bliss

    def __repr__(self):
        return f"VoterDistribution(n_types={self.n_types}, dimension={self.dimension})"


@dataclass(frozen=True)
class Shock:
    """Uniform popularity shock on [-half_width, half_width]."""

    half_width: float

    def __post_init__(self):
        if not 0.0 < self.half_width < np.inf:
            raise PreconditionError("shock half-width must be positive and finite")

    @property
    def density_at_zero(self) -> float:
        return 1.0 / (2.0 * self.half_width)

    def cdf(self, value):
        out = np.clip(0.5 + np.asarray(value, dtype=float) / (2.0 * self.half_width),
                      0.0, 1.0)
        return out if out.shape else float(out)


class PlatformPair:
    """Two announced platforms of equal dimension (party A first)."""

    def __init__(self, x_a, x_b):
        a = np.atleast_1d(np.asarray(x_a, dtype=float))
        b = np.atleast_1d(np.asarray(x_b, dtype=float))
        if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
            raise DimensionError("platforms must be vectors of equal length")
        self.x_a, self.x_b = _read_only(a, b)

    @property
    def dimension(self) -> int:
        return self.x_a.shape[0]

    @property
    def sq_distance(self) -> float:
        return float(np.sum((self.x_a - self.x_b) ** 2))

    def swapped(self) -> "PlatformPair":
        return PlatformPair(self.x_b, self.x_a)

    def __repr__(self):
        return f"PlatformPair(x_a={self.x_a.tolist()}, x_b={self.x_b.tolist()})"


def as_pair(pair) -> PlatformPair:
    """Coerce (x_a, x_b) tuples into a PlatformPair."""
    if isinstance(pair, PlatformPair):
        return pair
    x_a, x_b = pair
    return PlatformPair(x_a, x_b)


_GRID = np.linspace(0.0, 1.0, 1001)
_GRID_HALF = len(_GRID) // 2            # _GRID[_GRID_HALF] == 0.5 exactly
_FD_STEP = 1e-4


def unit_clamp(share):
    """Shares clamped to [0, 1], as ``np.clip(share, 0.0, 1.0)`` but without its call overhead.

    The argument order keeps np.clip's results bit for bit: -0.0 stays -0.0
    and NaN stays NaN.
    """
    return np.minimum(np.maximum(0.0, np.asarray(share, dtype=float)), 1.0)


def _constant_sum_violated(vals, total):
    csum = vals + vals[..., ::-1]
    np.subtract(csum, total, out=csum)
    np.abs(csum, out=csum)
    return np.max(csum, axis=-1) > 1e-10


# PowerMap's checks of its values on the validation grid
_POWER_GRID_CHECKS = (
    (lambda vals, total: ~np.isfinite(vals).all(axis=-1), PreconditionError,
     "power map must be finite on the validation grid"),
    (lambda vals, total: (vals[..., 1:] - vals[..., :-1] <= 0.0).any(axis=-1), PreconditionError,
     "power map must be strictly increasing in vote share"),
    (_constant_sum_violated, PreconditionError,
     "power map violates the constant-sum requirement"),
    (lambda vals, total: (vals[..., 0] < -1e-12) | (vals[..., -1] > total + 1e-12),
     PreconditionError, "power map must take values in [0, total]"),
)


class PowerMap:
    """Mapping from vote share to political power.

    Strictly increasing and constant-sum: rho(s) + rho(1 - s) == total.
    A jump at s = 1/2 models a majority premium. Its one-sided limits
    ``half_lower`` and ``half_upper`` (both rho(1/2) when not given) are kept
    explicitly so payoff increments across the threshold stay unambiguous;
    ``jump`` is their difference.
    """

    def __init__(self, total, func, half_lower=None, half_upper=None, description="custom"):
        if not total > 0.0:
            raise PreconditionError("total power must be positive")
        self.total = float(total)
        self._func = func
        vals = self.evaluate(_GRID)
        mid = float(vals[_GRID_HALF])
        self.half_lower = mid if half_lower is None else float(half_lower)
        self.half_upper = mid if half_upper is None else float(half_upper)
        self.jump = self.half_upper - self.half_lower
        self.description = description
        _raise_failed(_POWER_GRID_CHECKS, vals, self.total)

    def evaluate(self, share):
        s = unit_clamp(share)
        out = np.asarray(self._func(s), dtype=float)
        return out if out.shape else float(out)

    __call__ = evaluate


class PowerUtility:
    """Party utility over political power: strictly increasing, strictly concave.

    Verified by central finite differences on a grid over [0, total].
    """

    def __init__(self, func, total=1.0, description="custom"):
        if not total > 0.0:
            raise PreconditionError("total power must be positive")
        self._func = func
        self.total = float(total)
        self.description = description
        h = _FD_STEP * self.total
        pts = np.linspace(h, self.total - h, 999)
        up = self.evaluate(pts + h)
        mid = self.evaluate(pts)
        dn = self.evaluate(pts - h)
        if not np.all(np.isfinite((up, mid, dn))):
            raise PreconditionError("power utility must be finite on the validation grid")
        first = (up - dn) / (2.0 * h)
        second = (up - 2.0 * mid + dn) / (h * h)
        if np.any(first <= 0.0):
            raise PreconditionError("power utility must be strictly increasing")
        if np.any(second >= 0.0):
            raise PreconditionError("power utility must be strictly concave")

    def evaluate(self, power):
        out = np.asarray(self._func(np.asarray(power, dtype=float)), dtype=float)
        return out if out.shape else float(out)

    __call__ = evaluate


# ReducedPayoff's checks: the raw span before normalizing, then the values on
# the validation grid (composed payoffs may plateau, see the class docstring),
# then require_normalized's
_NORMALIZABLE = ((lambda span: span <= 0.0, PreconditionError,
                  "cannot normalize: payoff span over [0, 1] is not positive"),)
_FINITE_PAYOFF = (lambda vals: ~np.isfinite(vals).all(axis=-1), PreconditionError,
                  "reduced payoff must be finite on the validation grid")
_COMPOSED_PAYOFF_CHECKS = (
    _FINITE_PAYOFF,
    (lambda vals: (vals[..., 1:] - vals[..., :-1] < -1e-15).any(axis=-1)
     | (vals[..., -1] <= vals[..., 0]),
     PreconditionError, "reduced payoff decreases on the validation grid"),
)
_DIRECT_PAYOFF_CHECKS = (
    _FINITE_PAYOFF,
    (lambda vals: (vals[..., 1:] - vals[..., :-1] <= 0.0).any(axis=-1),
     PreconditionError, "reduced payoff must be strictly increasing in vote share"),
)


def _off_unit_span(value_at_zero, value_at_one):
    """Whether the span ``value_at_one - value_at_zero`` misses one by more than 1e-12; NaN does."""
    return np.logical_not(abs(value_at_one - value_at_zero - 1.0) <= 1e-12)


_NORMALIZED = ((_off_unit_span, PreconditionError,
                "operation requires a payoff normalized to unit span"),)


class ReducedPayoff:
    """Map from a party's vote share to its payoff, with diagnostics.

    Constructed either directly from a callable or by composing a
    PowerUtility with a PowerMap (see payoffs.compose_reduced_payoff).
    When ``normalize`` is set the payoff is affinely rescaled so that the
    full swing from losing every voter to winning every voter is worth
    exactly one unit.

    A callable given alone must be strictly increasing on the validation
    grid. A composed payoff, one given with its ``power_map``, is strictly
    increasing because its validated factors are; its grid values may only
    plateau where increments fall below machine resolution.

    Diagnostics recorded on construction (never raised here):

    - ``minority_gain_strict``: winning extra support is strictly more
      valuable to the trailing party than to the leading one, checked on
      grid pairs below/above one half. For a payoff with a jump at 1/2 the
      check near the threshold is recorded one-sidedly in
      ``minority_gain_at_half``.
    - ``strictly_concave``: continuous with strictly negative second
      differences on the grid; required by the multidimensional machinery.
    """

    def __init__(self, func, *, normalize=True, provenance="direct", power_map=None,
                 half_raw=None):
        # one evaluation of the grid; its ends give the normalization
        raw = np.asarray(func(unit_clamp(_GRID)), dtype=float)
        raw0 = float(raw[0])
        raw1 = float(raw[-1])
        span = raw1 - raw0
        if normalize:
            _raise_failed(_NORMALIZABLE, span)
            self._offset, self._scale = raw0, span
        else:
            self._offset, self._scale = 0.0, 1.0
        self._func = func
        self.normalized = bool(normalize)
        self.provenance = provenance
        self.power_map = power_map

        vals = (raw - self._offset) / self._scale        # == self.evaluate(_GRID)
        _raise_failed(_DIRECT_PAYOFF_CHECKS if power_map is None else _COMPOSED_PAYOFF_CHECKS,
                      vals)
        self.value_at_zero = float(vals[0])
        self.value_at_one = float(vals[-1])
        self.value_at_half = float(vals[_GRID_HALF])
        if half_raw is None:
            self.half_lower = self.half_upper = self.value_at_half
        else:
            self.half_lower, self.half_upper = ((float(v) - self._offset) / self._scale
                                                for v in half_raw)
        self.jump = self.half_upper - self.half_lower
        self.has_jump = self.jump > 1e-15

        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        self.strictly_concave = (not self.has_jump) and bool(np.all(second < 0.0))

        # gain asymmetry: nu(s) + nu(1 - s) strictly increasing on [0, 1/2]
        half = vals[: _GRID_HALF + 1]                # grid points in [0, 0.5]
        mirror = vals[_GRID_HALF:][::-1]             # nu(1 - s) on the same points
        gain = half + mirror
        interior = gain[1:-1] - gain[:-2]            # pairs strictly below 0.5
        self.minority_gain_strict = bool(np.all(interior > 0.0))
        if self.has_jump:
            # scalar calls, not grid entries: for placement-linear a scalar is a
            # 1-row Simpson product, which OpenBLAS dgemv sums in another order
            # than a row inside one of its 4-row groups, so the last bits differ
            s_last = _GRID[_GRID_HALF - 1]
            base = float(self.evaluate(s_last) + self.evaluate(1.0 - s_last))
            lower_ok = self.half_lower * 2.0 > base
            upper_ok = self.half_upper * 2.0 > base
            self.minority_gain_at_half = (bool(lower_ok), bool(upper_ok))
            self.minority_gain_strict = self.minority_gain_strict and lower_ok and upper_ok
        else:
            edge_ok = bool(gain[-1] - gain[-2] > 0.0)
            self.minority_gain_at_half = (edge_ok, edge_ok)
            self.minority_gain_strict = self.minority_gain_strict and edge_ok

    @property
    def span(self) -> float:
        return self.value_at_one - self.value_at_zero

    @property
    def unit_span(self) -> bool:
        """Whether the payoff is normalized: its span over [0, 1] is one within 1e-12."""
        return not _off_unit_span(self.value_at_zero, self.value_at_one)

    def evaluate(self, share):
        s = unit_clamp(share)
        out = (np.asarray(self._func(s), dtype=float) - self._offset) / self._scale
        return out if out.shape else float(out)

    __call__ = evaluate

    def require_normalized(self):
        _raise_failed(_NORMALIZED, self.value_at_zero, self.value_at_one)

    def require_strictly_concave(self):
        if not self.strictly_concave:
            raise PreconditionError("operation requires a strictly concave reduced payoff")


def preference_gap(pair, bliss) -> float:
    """Utility advantage of platform A over platform B for a voter at ``bliss``.

    Quadratic loss: ||x_b - bliss||^2 - ||x_a - bliss||^2. Positive values
    mean the voter leans toward party A.
    """
    p = as_pair(pair)
    b = np.atleast_1d(np.asarray(bliss, dtype=float))
    if b.shape != p.x_a.shape:
        raise DimensionError(f"bliss point has dimension {b.shape[0]}, platforms {p.dimension}")
    return float(np.sum((p.x_b - b) ** 2) - np.sum((p.x_a - b) ** 2))


def preference_gaps(pair, dist: VoterDistribution) -> np.ndarray:
    """Vectorized preference_gap over every type; a NaN gap raises PreconditionError."""
    p = as_pair(pair)
    if dist.dimension != p.dimension:
        raise DimensionError("electorate and platforms disagree on dimension")
    gaps = _gap_values(dist.bliss, p.x_a, p.x_b)
    _raise_failed(_GAP_CHECKS, gaps)
    return gaps


def _gap_values(bliss, x_a, x_b):
    """Gaps of the ``bliss`` rows (N, K) at platforms (K,), or (..., 1, K) for a row per pair."""
    d_b = np.sum((bliss - x_b) ** 2, axis=-1)
    d_a = np.sum((bliss - x_a) ** 2, axis=-1)
    with np.errstate(invalid="ignore"):     # inf − inf is NaN, refused by _GAP_CHECKS
        return d_b - d_a


_GAP_CHECKS = ((lambda gaps: np.isnan(gaps).any(axis=-1), PreconditionError,
                "preference gaps are NaN: platforms must not be NaN or both infinite"),)


def vote_probability(gap, shock: Shock):
    """Probability a voter with the given preference gap votes for party A."""
    return shock.cdf(gap)


@dataclass(frozen=True)
class ShockSupportReport:
    ok: bool
    extreme_gap: float
    bound: float
    message: str


def check_shock_support(dist: VoterDistribution, shock: Shock) -> ShockSupportReport:
    """Verify the shock support covers the most extreme achievable gaps.

    Uses the coordinate-wise envelope of the bliss points: the gap between
    the two corner platforms must not escape [-half_width, half_width],
    otherwise interior vote probabilities can hit 0 or 1.
    """
    hi = dist.bliss.max(axis=0)
    lo = dist.bliss.min(axis=0)
    extreme = float(np.sum((hi - lo) ** 2))
    ok = extreme <= shock.half_width
    if ok:
        msg = "ok"
    else:
        msg = (f"extreme preference gap {extreme:.17g} exceeds shock half-width "
               f"{shock.half_width:.17g}; vote probabilities may clamp at 0/1")
    return ShockSupportReport(ok=ok, extreme_gap=extreme, bound=shock.half_width, message=msg)


def _sorted_gap_lottery(gaps, shares, half_width):
    """``(tails, probs)`` of gaps sorted along the last axis, with their shares.

    ``tails[..., j]`` is party A's vote share when the shock falls between
    gaps j-1 and j (clamped to the shock support), ``probs[..., j]`` that
    interval's chance. Tails accumulate backwards to limit cancellation.
    """
    lead, n = gaps.shape[:-1], gaps.shape[-1]
    tails = np.zeros(lead + (n + 1,))
    tails[..., :-1] = np.cumsum(shares[..., ::-1], axis=-1)[..., ::-1]
    # the full-population tail is exactly one by the share invariant; pinning
    # it avoids noise amplification in payoffs with unbounded slope at zero
    tails[..., 0] = 1.0
    # bare ufuncs, not np.clip / np.diff: their call overhead is a third of a
    # 1-D call. Shares are positive, so tails need only the upper clamp.
    np.minimum(tails, 1.0, out=tails)
    cuts = np.full(lead + (n + 2,), half_width)
    cuts[..., 0] = -half_width
    np.minimum(np.maximum(gaps, -half_width), half_width, out=cuts[..., 1:-1])
    return tails, (cuts[..., 1:] - cuts[..., :-1]) / (2.0 * half_width)


def vote_share_lottery(dist: VoterDistribution, shock: Shock, pair):
    """Exact distribution of party A's vote share under the uniform shock.

    Types are sorted by preference gap, gaps closer than ``TIE_TOL`` are
    merged into blocks, and the share is piecewise constant between block
    gaps clamped to the shock support. Returns read-only ``(shares,
    probabilities)`` with probabilities summing to one. The electorate keeps
    its latest lottery, so a second call at equal platforms and shock (party
    B's payoff, or a checked solve's policy lottery) builds nothing.
    """
    p = as_pair(pair)

    def build():
        gaps = preference_gaps(p, dist)
        order = np.argsort(gaps, kind="stable")
        return _read_only(*_merged_gap_lottery(gaps[order], dist.shares[order],
                                               shock.half_width))

    return dist._derived("vote_share_lottery", build, shock, p.x_a.tobytes(), p.x_b.tobytes())


def _merged_gap_lottery(g, shares, half_width):
    """``_sorted_gap_lottery`` of ascending gaps ``g`` once gaps within ``TIE_TOL`` merge.

    A block of near-tied gaps sits at its first gap and carries its types'
    summed ``shares``, which are in the order of ``g``.
    """
    with np.errstate(invalid="ignore"):   # merge near-ties, equal infinite gaps too
        starts = np.concatenate(([0], np.flatnonzero(np.diff(g) >= TIE_TOL) + 1))
    return _sorted_gap_lottery(g[starts], np.add.reduceat(shares, starts), half_width)


def expected_payoff(dist: VoterDistribution, nu: ReducedPayoff, shock: Shock, pair,
                    party="A") -> float:
    """Exact expected reduced payoff for one party at a platform pair."""
    shares, probs = vote_share_lottery(dist, shock, pair)
    if party == "B":
        shares = 1.0 - shares
    elif party != "A":
        raise PreconditionError(f"party must be 'A' or 'B', got {party!r}")
    return float(np.dot(nu.evaluate(shares), probs))


def distance_payoff(nu: ReducedPayoff, shock: Shock, sq: float) -> float:
    """Distance identity: equilibrium payoff at squared platform distance ``sq``.

    The mean of the payoff's extremes plus the insurance term sq / (2 h).
    """
    return _distance_identity(nu.value_at_zero, nu.value_at_one, shock.half_width, sq)


def _distance_identity(value_at_zero, value_at_one, half_width, sq):
    return 0.5 * (value_at_one + value_at_zero) + sq / (2.0 * half_width)


# Monte-Carlo shock lookup: buckets per preference gap, and shocks drawn per chunk
_MC_BUCKETS_PER_GAP = 64
_MC_CHUNK = 1 << 16


def _shock_lookup(g, values, half_width):
    """Function mapping shocks ``eps`` to ``values[np.searchsorted(g, eps, side="left")]``.

    ``g`` holds ascending, non-NaN gaps (±inf allowed) and ``values`` one
    entry per interval between them. The support [-h, h] is cut into
    B = 64 · len(g) buckets by b(v) = trunc(clamp((v / h + 1) · B/2, 0, B - 1)).
    Every step of b is monotone non-decreasing under round-to-nearest, so
    b(eps) < b(g_i) implies eps < g_i and b(eps) > b(g_i) implies eps > g_i.
    A shock in a bucket that holds no gap therefore lies above exactly the
    gaps in lower buckets, and its value is read from a per-bucket table;
    a shock sharing its bucket with a gap takes the exact binary search.
    Dividing by h, not multiplying by B / (2h), keeps b finite for a
    subnormal h, and v / h is never NaN for a finite positive h.
    """
    n_buckets = _MC_BUCKETS_PER_GAP * len(g)
    scale = 0.5 * n_buckets
    top = n_buckets - 1.0

    def bucket(v):
        with np.errstate(over="ignore"):      # far gaps overflow to ±inf: end buckets
            b = v / half_width
            b += 1.0
            b *= scale
        np.maximum(b, 0.0, out=b)
        np.minimum(b, top, out=b)
        return b.astype(np.intp)

    gap_bucket = bucket(g)
    # values[k] fills the buckets above gap k-1's, up to gap k's: k gaps lie lower
    table = np.repeat(values, np.diff(gap_bucket, prepend=-1, append=n_buckets - 1))
    shared = np.zeros(n_buckets, dtype=bool)
    shared[gap_bucket] = True

    def lookup(eps, out=None):
        b = bucket(eps)
        out = np.take(table, b, out=out, mode="clip")     # in range; "clip" is unbuffered
        hit = np.flatnonzero(np.take(shared, b))
        if hit.size:
            out[hit] = values[np.searchsorted(g, eps[hit], side="left")]
        return out

    return lookup


def monte_carlo_payoff(dist: VoterDistribution, nu: ReducedPayoff, shock: Shock, pair,
                       party="A", n_draws=100_000, seed=0) -> float:
    """Monte-Carlo estimate of expected_payoff; deterministic given seed.

    Draws ``n_draws`` uniform shocks on [-h, h] from
    ``np.random.default_rng(seed)``, reads the party's payoff in the
    interval between sorted preference gaps that each shock falls in, and
    returns the mean. Shocks are drawn ``_MC_CHUNK`` at a time; consecutive
    chunks from one generator are the same doubles as a single draw. Each
    shock's interval comes from the exact bucket lookup of
    ``_shock_lookup``, equal to a binary search of every shock. The values
    fill one output array whose mean is taken once, so the result is the
    same float, bit for bit, as ``values[np.searchsorted(g, eps)].mean()``
    over the whole draw. Memory is that array (8 bytes a draw) plus a few
    chunk-sized temporaries and ``_MC_BUCKETS_PER_GAP`` table entries per
    type: a 10**6-draw call peaks near 10 MB, where a whole-array binary
    search held 24 MB.

    Raises PreconditionError unless ``n_draws`` is an integer (not a bool)
    of at least 1, or if a preference gap is NaN (see ``preference_gaps``).
    """
    if (isinstance(n_draws, bool) or not isinstance(n_draws, (int, np.integer))
            or n_draws < 1):
        raise PreconditionError(f"n_draws must be an integer of at least 1, got {n_draws!r}")
    gaps = preference_gaps(pair, dist)
    order = np.argsort(gaps, kind="stable")
    g = gaps[order]
    tails, _ = _sorted_gap_lottery(g, dist.shares[order], shock.half_width)
    if party == "B":
        tails = 1.0 - tails
    elif party != "A":
        raise PreconditionError(f"party must be 'A' or 'B', got {party!r}")
    h = shock.half_width
    lookup = _shock_lookup(g, np.asarray(nu.evaluate(tails), dtype=float), h)
    rng = np.random.default_rng(seed)
    out = np.empty(n_draws)
    for start in range(0, n_draws, _MC_CHUNK):
        stop = min(start + _MC_CHUNK, n_draws)
        lookup(rng.uniform(-h, h, size=stop - start), out=out[start:stop])
    return float(out.mean())
