"""Multidimensional platform competition: rankings, enumeration, dynamics.

A platform pair splits voter types into a strict order by their relative
preference between the two parties. Local equilibria are exactly the
self-consistent orders: weight the bliss points by the marginal payoff
increments along the order, and the order induced by the resulting pair
must reproduce itself. A pair's gaps are 2x·(a−b) plus a constant, so
every induced order is the order of the bliss points projected onto a
direction: only rankings some direction realizes can be self-consistent,
and only their platforms can be best responses. Searching those rankings
therefore finds every local equilibrium; party-preferred Nash equilibria
are the local equilibria of maximal platform distance (symmetric
electorates). Best-response dynamics over the finite candidate set provides
the convergence machinery.

The realizable rankings are the cells of the central arrangement of the
hyperplanes (x_i−x_j)·d = 0. When the bliss differences span at most
three dimensions they are enumerated from flags of those hyperplanes
(``_realizable_rankings``); in four or more, and for at most four types,
every permutation is a row. ``ENUM_BUDGET`` bounds either search.
Enumeration, the best-response candidate set and single rankings all go
through one batched ranking table: every ranking is a row of an (M, n)
index array, the payoff is evaluated once per distinct head or tail share
sum, and platforms and the self-consistency check are computed for all
rows at once.

Directional spreads order multidimensional electorates by projecting onto
a direction (typically the equilibrium separation axis) and applying the
one-dimensional spread comparison to the projections.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InternalConsistencyError, PreconditionError
from .model import (
    _SUPPORT_CHECKS,
    PlatformPair,
    ReducedPayoff,
    Shock,
    VoterDistribution,
    _cut,
    _gap_values,
    _read_only,
    _require_near,
    _sorted_gap_lottery,
    _unresolved_insurance,
    as_pair,
    distance_payoff,
    expected_payoff,
    preference_gaps,
)
from .equilibrium1d import (_head_tail_shares, _median_cut, _weights_from_values,
                            equilibrium_weights, is_spread)

RANK_TOL = 1e-9
ENUM_BUDGET = math.factorial(8) * 8     # entries a ranking search may touch: 8 types' n!·n
FLAG_TOL = 1e-9             # sines this small count as a difference lying in a hyperplane
_FEW_TYPES = 4              # up to this many types the n! rows cost less than the flags
PREFERRED_TOL = 1e-9        # squared distances this close to the maximum tie for preferred
SYMMETRY_TOL = 1e-9         # mirror images match within this, coordinates and shares
_PAYOFF_TIE_TOL = 1e-12


def _rises(gaps, tol=RANK_TOL) -> np.ndarray:
    """Whether every step along the last axis of ``gaps`` is at least ``tol``.

    A step between equal infinite gaps is NaN, so it is no rise.
    """
    with np.errstate(invalid="ignore"):
        return np.all(np.diff(gaps, axis=-1) >= tol, axis=-1)


def induced_ranking(pair, dist: VoterDistribution):
    """Strict order of types by preference gap, least A-leaning first.

    Returns None when two types are closer than ``RANK_TOL`` in preference
    gap: tied profiles induce no strict ranking. Equal infinite gaps tie too.
    """
    gaps = preference_gaps(pair, dist)
    order = np.argsort(gaps, kind="stable")
    if not _rises(gaps[order]):
        return None
    return tuple(int(i) for i in order)


def platforms_for_ranking(ranking, dist: VoterDistribution, nu: ReducedPayoff) -> PlatformPair:
    """Candidate platform pair generated by a ranking of the electorate.

    Party A averages bliss points with the high-side weights (it wins a
    type only together with all types ranked above it); party B mirrors.
    Requires a strictly concave payoff, which rules out best responses at
    tie profiles.
    """
    _validate_ranking(ranking, dist)
    nu.require_strictly_concave()
    high, low = _ranking_table(np.asarray(ranking, dtype=np.intp)[None, :], dist, nu)
    return PlatformPair(high[0], low[0])


@functools.lru_cache(maxsize=None)
def _permutations(n: int) -> np.ndarray:
    """Read-only (n!, n) array of every permutation of range(n), lexicographically."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    return _read_only(np.fromiter(flat, dtype=np.intp,
                                  count=n * math.factorial(n)).reshape(-1, n))


@functools.lru_cache(maxsize=None)
def _flip_weights(rank: int) -> np.ndarray:
    """(r, 2^r) weights: a level's sign times 3^(levels after it), one column per flip pattern.

    With tie-masked signs s_k in {-1, 0, 1}, the sign of s @ column is the
    sign of the first nonzero s_k, flipped as its level is (3^j exceeds the
    sum of all lower powers).
    """
    flips = np.array(list(itertools.product((1.0, -1.0), repeat=rank)))
    return _read_only((flips * 3.0 ** np.arange(rank - 1, -1, -1)).T)


def _flag_levels(unit: np.ndarray) -> np.ndarray:
    """Levels (F, r, r) of every flag of the hyperplanes with unit normals ``unit`` (m, r).

    Column k of a flag is L_{k+1}. Normals whose sine is at most ``FLAG_TOL``
    are one hyperplane. In 2-D, L₁ runs along a hyperplane and L₂ is its
    normal n₁; in 3-D, L₁ = n₁ × n₂ (normalized) for every ordered pair of
    independent normals, L₂ = L₁ × n₁ and L₃ = n₁.
    """
    rank = unit.shape[1]
    if rank == 1:
        return np.ones((1, 1, 1))
    along = unit[:, None, :] - (unit @ unit.T)[:, :, None] * unit[None, :, :]
    parallel = np.einsum("abk,abk->ab", along, along) <= FLAG_TOL ** 2
    normals = unit[~np.any(np.tril(parallel, -1), axis=1)]
    if rank == 2:
        return np.stack((np.stack((-normals[:, 1], normals[:, 0]), axis=1), normals), axis=2)
    a, b = np.nonzero(~np.eye(len(normals), dtype=bool))
    ray = np.cross(normals[a], normals[b])
    size = np.sqrt(np.einsum("fk,fk->f", ray, ray))
    independent = size > FLAG_TOL
    ray = ray[independent] / size[independent, None]
    n1 = normals[a[independent]]
    return np.stack((ray, np.cross(ray, n1), n1), axis=2)


def _require_budget(entries: int, n: int):
    if entries > ENUM_BUDGET:
        raise PreconditionError(f"the ranking search over {n} types would touch {entries} "
                                f"entries, over the enumeration budget {ENUM_BUDGET}")


def _realizable_rankings(bliss: np.ndarray) -> np.ndarray:
    """Read-only (M, n) array of the rankings some direction realizes, lexicographically.

    A ranking lists the types by ascending x·d. The realizable ones are the
    cells of the central arrangement of the hyperplanes (x_i−x_j)·d = 0,
    taken in the span of the bliss differences, of rank r. Each cell has an
    extreme ray L₁ cut out by r−1 independent hyperplanes, and inside L₁^⊥
    the same holds one dimension down. So for every ordered choice of r−1
    distinct hyperplanes, L₁ is orthogonal to all of them, L₂ to the first
    r−2 and to L₁, and so on (``_flag_levels``); ordering the types
    lexicographically by (x·L₁, …, x·L_r), over every sign of the Lₖ,
    reaches every cell.

    A pair whose unit difference has a sine of at most ``FLAG_TOL`` against
    a level is tied there and decided by a later level; hyperplanes that
    close are merged. If those decisions are not transitive for some flag, a
    tie was uncertain, and every permutation is returned instead: extra rows
    cost time but never change a result. So are the rows when r ≥ 4, where
    the flags outnumber the n! permutations at every n the budget admits,
    and for at most ``_FEW_TYPES`` types, where a table of the n! ≤ 24
    permutations costs less than enumerating the flags.

    Past ``ENUM_BUDGET`` entries, n!·n for permutations or flags × m pairs
    (1, m or m(m−1) flags at rank 1, 2, 3), raises ``PreconditionError``
    before allocating: 8 types fit at rank ≥ 4 or on an uncertain tie, 12
    at rank 3, 34 at rank 2 and 803 at rank 1.
    """
    n = bliss.shape[0]
    if n <= _FEW_TYPES:
        return _permutations(n)
    m = n * (n - 1) // 2
    _require_budget(m, n)           # one flag is the least any search touches
    first, second = np.triu_indices(n, 1)
    unit = bliss[first] - bliss[second]
    # scale by the largest component first, so tiny differences keep their norm
    unit /= np.max(np.abs(unit), axis=1, keepdims=True)
    unit /= np.sqrt(np.einsum("pk,pk->p", unit, unit))[:, None]
    _, sing, basis = np.linalg.svd(unit, full_matrices=False)
    rank = int(np.count_nonzero(sing > FLAG_TOL * sing[0]))
    if rank > 3:
        _require_budget(math.factorial(n) * n, n)
        return _permutations(n)
    _require_budget((1, m, m * (m - 1))[rank - 1] * m, n)
    unit = unit @ basis[:rank].T                    # (m, r) pair directions in the span
    proj = unit @ _flag_levels(unit)                # (F, m, r)
    sign = np.sign(proj) * (np.abs(proj) > FLAG_TOL)
    # pair (i, j), i < j: i comes after j when its projection is larger
    later = (sign @ _flip_weights(rank) > 0.0).transpose(0, 2, 1).reshape(-1, len(unit))
    after = np.zeros((len(later), n, n), dtype=bool)
    after[:, first, second] = later
    after[:, second, first] = ~later
    position = np.sum(after, axis=2)
    if not np.all(np.sort(position, axis=1) == np.arange(n)):
        _require_budget(math.factorial(n) * n, n)
        return _permutations(n)
    rows = np.argsort(position, axis=1)
    rows = rows[np.lexsort(rows.T[::-1])]
    return _read_only(rows[np.concatenate(([True], np.any(rows[1:] != rows[:-1], axis=1)))])


def _nu_on_distinct(nu: ReducedPayoff, shares: np.ndarray) -> np.ndarray:
    """``nu`` at every entry of ``shares``, evaluated once per distinct value.

    Share sums repeat heavily across rankings and candidates; the payoff
    is elementwise, so gathering from the distinct values changes nothing
    but the work (and the memory of payoffs that integrate per value).
    """
    distinct = np.unique(shares)
    # searchsorted into the few distinct values is cheaper than unique's inverse
    return np.asarray(nu.evaluate(distinct), dtype=float)[np.searchsorted(distinct, shares)]


def _weighted_sides(w_low, w_high, pts):
    """Platforms ``(high, low)`` averaging ``pts`` (..., n, K) with the side weights (..., n)."""
    return (np.matmul(w_high[..., None, :], pts)[..., 0, :],
            np.matmul(w_low[..., None, :], pts)[..., 0, :])


def _ranking_table(perms: np.ndarray, dist: VoterDistribution, nu: ReducedPayoff):
    """High and low platforms ``(M, K)`` generated by each row of ``perms`` (M, n).

    Per row the arithmetic is that of ``equilibrium_weights`` followed by
    weighted sums of the ranked bliss points: head and tail share sums
    (tails accumulated backwards), payoff increments along them, and the
    weighted averages. All rows are computed at once.
    """
    nu_heads, nu_tails = _nu_on_distinct(nu, np.stack(_head_tail_shares(dist.shares[perms])))
    return _weighted_sides(*_weights_from_values(nu_heads, nu_tails), dist.bliss[perms])


def _self_consistent(perms, gaps, tol=RANK_TOL) -> np.ndarray:
    """Mask of rows of ``perms`` whose pair induces exactly that row.

    ``gaps`` (M, n) holds each row's preference gaps at its pair, in type
    order (see ``_gapped_table``). The rule of ``induced_ranking``, made for
    every row at once: a row's gaps, taken in its order, must rise by at
    least ``tol`` at each step.
    """
    return _rises(np.take_along_axis(gaps, perms, axis=1), tol)


def _gapped_table(dist, nu):
    """``_stored_table`` and the (M, n) gaps of each row's pair (high for A, low for B)."""
    rows, high, low = _stored_table(dist, nu)
    return rows, high, low, _gap_values(dist.bliss, high[:, None, :], low[:, None, :])


def _stored_table(dist, nu):
    """``(rows, high, low)`` over the rows of ``_realizable_rankings``, lexicographically.

    The electorate keeps its rows for any payoff and its platforms for the
    latest payoff object. The arrays are read-only.
    """
    nu.require_strictly_concave()
    rows = dist._derived("rankings", lambda: _realizable_rankings(dist.bliss))
    high, low = dist._derived("ranking_table",
                              lambda: _read_only(*_ranking_table(rows, dist, nu)), nu)
    return rows, high, low


def _validate_ranking(ranking, dist):
    if sorted(ranking) != list(range(dist.n_types)):
        raise PreconditionError("ranking must be a permutation of all type indices")


@dataclass(frozen=True)
class LocalEquilibrium:
    """Self-consistent ranking with its platform pair and common payoff."""

    pair: PlatformPair
    ranking: tuple
    sq_distance: float
    payoff: float


def enumerate_local_equilibria(dist: VoterDistribution, nu: ReducedPayoff, shock: Shock):
    """All local equilibria by search over the realizable rankings, lexicographically.

    Keeps exactly the rankings that reproduce themselves at their generated
    platform pair, with adjacent gaps at least ``RANK_TOL`` apart. Every
    kept pair must keep its preference gaps inside the shock support (else
    ``PreconditionError``, checked on the gaps the ranking test read) and is
    verified against the exact integrator: both parties' expected payoffs
    must match the distance identity within 1e-8.
    """
    rows, high, low, gaps = _gapped_table(dist, nu)
    kept = np.flatnonzero(_self_consistent(rows, gaps))
    _, error = _cut(len(kept), None, _SUPPORT_CHECKS, gaps[kept], shock.half_width)
    if error is not None:
        raise error
    found = []
    for perm, x_a, x_b in zip(rows[kept], high[kept], low[kept]):
        pair = PlatformPair(x_a, x_b)
        sq = pair.sq_distance
        payoff = distance_payoff(shock, sq)
        _check_equilibrium_payoffs(pair, payoff, dist, nu, shock)
        found.append(LocalEquilibrium(pair=pair, ranking=tuple(int(i) for i in perm),
                                      sq_distance=sq, payoff=payoff))
    return found


def _check_equilibrium_payoffs(pair, payoff, dist, nu, shock):
    v_a = expected_payoff(dist, nu, shock, pair, "A")
    v_b = expected_payoff(dist, nu, shock, pair, "B")
    if abs(v_a - payoff) > 1e-8 or abs(v_b - payoff) > 1e-8:
        raise InternalConsistencyError(
            f"distance identity {payoff:.17g} disagrees with integrator "
            f"(A={v_a:.17g}, B={v_b:.17g})")
    if abs(v_a - v_b) > 1e-10:
        raise InternalConsistencyError("parties' payoffs differ at a local equilibrium")


def candidate_platforms(dist: VoterDistribution, nu: ReducedPayoff):
    """Every best-response candidate: both platforms of every realizable ranking.

    Only a ranking some direction realizes can be the order along a best
    response's separation, so the rankings no direction realizes add no
    candidate that can win. Ordered lexicographically by generating
    ranking, high side first, so index order breaks payoff ties
    deterministically.
    """
    _, high, low = _stored_table(dist, nu)
    return np.stack((high, low), axis=1).reshape(-1, dist.dimension)


def _batch_payoffs(cands: np.ndarray, opponent: np.ndarray, dist, nu, shock):
    """Expected payoff of each candidate platform against a fixed opponent."""
    d_opp = np.sum((dist.bliss - opponent) ** 2, axis=1)
    diff = cands[:, None, :] - dist.bliss[None, :, :]
    d_cand = np.einsum("mnk,mnk->mn", diff, diff)
    gaps = d_opp[None, :] - d_cand
    order = np.argsort(gaps, axis=1, kind="stable")
    tails, probs = _sorted_gap_lottery(np.take_along_axis(gaps, order, axis=1),
                                       dist.shares[order], shock.half_width)
    return np.sum(_nu_on_distinct(nu, tails) * probs, axis=1)


def _require_in_support(opponent: np.ndarray, dist, shock):
    """Raise unless every gap a candidate can make against ``opponent`` lies in the support.

    Candidates are convex combinations of bliss points, so a type's squared
    distance to one is at most its largest squared distance to a bliss
    point. Its gap is then at most its squared distance to the opponent and
    at least that minus the largest squared distance.
    """
    _require_near(dist._lo, dist._hi, opponent)
    to_opp = np.sum((dist.bliss - opponent) ** 2, axis=1)
    diff = dist.bliss[:, None, :] - dist.bliss[None, :, :]
    farthest = np.max(np.einsum("ijk,ijk->ij", diff, diff), axis=1)
    h = shock.half_width
    if not (np.max(to_opp) <= h and np.min(to_opp - farthest) >= -h):
        raise PreconditionError(
            f"opponent platform {np.array2string(opponent, precision=17)} lets preference "
            f"gaps leave the shock support (half-width {h:.17g}); best responses are only "
            "global inside it")


def _best_candidate(payoffs: np.ndarray) -> int:
    """Index of the best payoff; ties within ``_PAYOFF_TIE_TOL`` go to the lowest index."""
    return int(np.flatnonzero(payoffs >= payoffs.max() - _PAYOFF_TIE_TOL)[0])


def best_response(opponent, dist: VoterDistribution, nu: ReducedPayoff,
                  shock: Shock) -> np.ndarray:
    """Globally best platform against ``opponent``.

    Global best responses lie in the finite candidate set generated by
    realizable rankings as long as every preference gap stays inside the
    shock support, so the argmax over that set suffices. Requires, for
    every type i, ‖x_i − opponent‖² ≤ h and ‖x_i − opponent‖² −
    max_j ‖x_i − x_j‖² ≥ −h, with h the shock half-width; otherwise raises
    ``PreconditionError``. Payoff ties resolve to the candidate of the
    lexicographically smallest generating ranking (high side before low
    side).
    """
    opp = np.atleast_1d(np.asarray(opponent, dtype=float))
    if opp.shape[0] != dist.dimension:
        raise DimensionError("opponent platform dimension mismatch")
    cands = candidate_platforms(dist, nu)
    _require_in_support(opp, dist, shock)
    payoffs = _batch_payoffs(cands, opp, dist, nu, shock)
    return cands[_best_candidate(payoffs)].copy()


@dataclass(frozen=True)
class DynamicsResult:
    trajectory: tuple           # PlatformPair per step, start included
    sq_distances: np.ndarray
    converged: bool
    symmetric: bool             # distance monotonicity is only guaranteed when True


def best_response_dynamics(start, dist: VoterDistribution, nu: ReducedPayoff, shock: Shock,
                           max_iters: int = 60) -> DynamicsResult:
    """Alternating best-response path from ``start`` (A moves first).

    A party already best-responding stays put; the walk stops once both
    parties pass in turn. Started from a local equilibrium of a symmetric
    electorate, the platform distance never falls below its starting value
    and the walk terminates in a Nash equilibrium. Both starting platforms,
    and every platform a move picks, must satisfy ``best_response``'s shock
    support condition as opponents; otherwise raises ``PreconditionError``.
    """
    pair = as_pair(start)
    if pair.dimension != dist.dimension:
        raise DimensionError("starting platforms dimension mismatch")
    symmetric = is_symmetric(dist)
    cands = candidate_platforms(dist, nu)
    _require_in_support(pair.x_a, dist, shock)
    _require_in_support(pair.x_b, dist, shock)
    traj = [pair]
    sq = [pair.sq_distance]
    stale = 0
    converged = False
    for step in range(1, max_iters + 1):
        mover_is_a = step % 2 == 1
        own = pair.x_a if mover_is_a else pair.x_b
        opp = pair.x_b if mover_is_a else pair.x_a
        payoffs = _batch_payoffs(cands, opp, dist, nu, shock)
        current = _batch_payoffs(own[None, :], opp, dist, nu, shock)[0]
        if current >= payoffs.max() - _PAYOFF_TIE_TOL:
            stale += 1
        else:
            stale = 0
            chosen = cands[_best_candidate(payoffs)]
            _require_in_support(chosen, dist, shock)
            pair = PlatformPair(chosen, opp) if mover_is_a else PlatformPair(opp, chosen)
        traj.append(pair)
        sq.append(pair.sq_distance)
        if stale >= 2:
            converged = True
            break
    return DynamicsResult(trajectory=tuple(traj), sq_distances=np.array(sq),
                          converged=converged, symmetric=symmetric)


@dataclass(frozen=True)
class NashReport:
    """Party-preferred equilibria with the full local-equilibrium inventory."""

    party_preferred: tuple
    max_sq_distance: float
    inventory: tuple


def party_preferred_equilibria(dist: VoterDistribution, nu: ReducedPayoff,
                               shock: Shock) -> NashReport:
    """Nash equilibria of maximal platform differentiation.

    Requires a symmetric electorate (existence is only guaranteed there).
    All local equilibria within ``PREFERRED_TOL`` of the maximal squared
    distance are returned; ties at machine precision are not broken. When
    no ranking's gaps rise by ``RANK_TOL`` at every step but some rise
    weakly (no step negative), types tie within that tolerance at their
    own platforms: a ``PreconditionError``.
    """
    if not is_symmetric(dist):
        raise PreconditionError("party-preferred selection requires a symmetric electorate")
    inventory = enumerate_local_equilibria(dist, nu, shock)
    if not inventory:
        rows, _, _, gaps = _gapped_table(dist, nu)
        if _self_consistent(rows, gaps, 0.0).any():
            raise PreconditionError(
                f"no local equilibrium resolved: types tie within RANK_TOL = {RANK_TOL:g} in "
                "preference gap at every ranking their own platforms weakly reproduce; the "
                "bliss points lie too close together for the ranking tolerance")
        raise InternalConsistencyError("no local equilibrium found for a symmetric electorate")
    max_sq = max(eq.sq_distance for eq in inventory)
    best = tuple(eq for eq in inventory if eq.sq_distance >= max_sq - PREFERRED_TOL)
    return NashReport(party_preferred=best, max_sq_distance=max_sq, inventory=tuple(inventory))


def is_symmetric(dist: VoterDistribution) -> bool:
    """Whether every type has a mirror image through the mean bliss point.

    Types pair greedily in index order, each with the lowest-index unpaired
    type (itself included) within ``SYMMETRY_TOL`` of its mirror image in
    every coordinate and in share. The electorate keeps its verdict.
    """
    return dist._derived("symmetric", lambda: _mirror_paired(dist))


def _mirror_paired(dist: VoterDistribution) -> bool:
    targets = 2.0 * dist.mean_bliss() - dist.bliss
    unused = np.ones(dist.n_types, dtype=bool)
    for i in range(dist.n_types):
        if not unused[i]:
            continue
        ok = (unused
              & (np.max(np.abs(dist.bliss - targets[i]), axis=1) <= SYMMETRY_TOL)
              & (np.abs(dist.shares - dist.shares[i]) <= SYMMETRY_TOL))
        if not ok.any():
            return False
        unused[i] = False
        unused[np.argmax(ok)] = False
    return True


def median_position(ranking, dist: VoterDistribution):
    """Position splitting a ranking into the two parties' supporter blocs.

    Returns ``(position, straddling)``; position is None when a cumulative
    share hits one half exactly, in which case no position qualifies and
    sign statements about the split are skipped.
    """
    _validate_ranking(ranking, dist)
    position, tie = _median_cut(np.cumsum(dist.shares[np.asarray(ranking, dtype=int)]))
    return (None, True) if tie else (position, False)


def local_divide_gradient(ranking, dist: VoterDistribution, nu: ReducedPayoff, shock: Shock,
                          position: int, dim: int) -> float:
    """Derivative of the local-equilibrium payoff in one bliss coordinate.

    ``position`` indexes the ranking (0 = least A-leaning), ``dim`` the
    policy dimension. The value is the weight differential at that position
    times the platform separation on that dimension, over the shock
    half-width; its sign aligns with the separation exactly for positions
    on party A's side of the split.
    """
    _validate_ranking(ranking, dist)
    if not 0 <= position < dist.n_types:
        raise PreconditionError(f"position {position} out of range")
    if not 0 <= dim < dist.dimension:
        raise PreconditionError(f"dimension {dim} out of range")
    nu.require_strictly_concave()
    idx = np.asarray(ranking, dtype=int)
    w_low, w_high = equilibrium_weights(dist.shares[idx], nu)
    pts = dist.bliss[idx]
    pair = PlatformPair(*_weighted_sides(w_low, w_high, pts))
    if induced_ranking(pair, dist) != tuple(ranking):
        raise PreconditionError("ranking is not self-consistent for this electorate")
    sep = pair.x_a[dim] - pair.x_b[dim]
    return float((w_high[position] - w_low[position]) * sep / shock.half_width)


def project_distribution(dist: VoterDistribution, direction) -> VoterDistribution:
    """One-dimensional electorate of inner products with ``direction``.

    Types whose projections coincide are merged with summed shares so the
    result is a valid electorate for spread comparisons.
    """
    d = np.atleast_1d(np.asarray(direction, dtype=float))
    if d.shape[0] != dist.dimension:
        raise DimensionError("direction dimension mismatch")
    if not np.any(d != 0.0):
        raise PreconditionError("direction must be nonzero")
    z = dist.bliss @ d
    order = np.argsort(z, kind="stable")
    values, shares, labels = [], [], []
    for pos in order:
        if values and abs(z[pos] - values[-1]) <= 1e-12:
            shares[-1] += dist.shares[pos]
            labels[-1] = f"{labels[-1]}+{dist.labels[pos]}"
        else:
            values.append(float(z[pos]))
            shares.append(float(dist.shares[pos]))
            labels.append(dist.labels[pos])
    return VoterDistribution(np.array(values).reshape(-1, 1), np.array(shares), labels)


def is_directional_spread(base: VoterDistribution, candidate: VoterDistribution,
                          direction) -> bool:
    """Spread comparison of the two electorates projected onto a direction."""
    if base.dimension != candidate.dimension:
        raise DimensionError("electorates disagree on dimension")
    return is_spread(project_distribution(base, direction),
                     project_distribution(candidate, direction))


@dataclass(frozen=True)
class DirectionalSpreadComparison:
    base_payoff: float
    candidate_payoff: float
    base_sq_distance: float
    candidate_sq_distance: float
    direction: np.ndarray
    base_report: NashReport
    candidate_report: NashReport


def compare_directional_spread_payoffs(base: VoterDistribution, candidate: VoterDistribution,
                                       nu: ReducedPayoff,
                                       shock: Shock) -> DirectionalSpreadComparison:
    """Party-preferred payoffs for a base electorate and a spread of it.

    The spread direction is the separation axis of the base's (first)
    party-preferred equilibrium. Requires both electorates symmetric and
    the candidate to be a spread of the base along that direction; the
    candidate's payoff must then strictly exceed the base's. A squared
    distance that rises under payoffs that tie is a ``PreconditionError``:
    the shock is too wide for the insurance term to show in a double.
    """
    nash_base = party_preferred_equilibria(base, nu, shock)
    ref = nash_base.party_preferred[0]
    direction = ref.pair.x_a - ref.pair.x_b
    if not is_directional_spread(base, candidate, direction):
        raise PreconditionError(
            "candidate electorate is not a spread of the base along the equilibrium direction")
    nash_cand = party_preferred_equilibria(candidate, nu, shock)
    base_pay = ref.payoff
    cand_pay = nash_cand.party_preferred[0].payoff
    if nash_cand.party_preferred[0].sq_distance > ref.sq_distance and cand_pay == base_pay:
        raise _unresolved_insurance(shock)
    if not cand_pay > base_pay:
        raise InternalConsistencyError("directional spread failed to raise the preferred payoff")
    return DirectionalSpreadComparison(
        base_payoff=base_pay, candidate_payoff=cand_pay,
        base_sq_distance=nash_base.max_sq_distance,
        candidate_sq_distance=nash_cand.max_sq_distance,
        direction=direction, base_report=nash_base, candidate_report=nash_cand)
