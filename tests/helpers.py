"""Shared test utilities: independent oracles and instance generators."""

import hashlib
import itertools
from fractions import Fraction

import numpy as np

import polcomp as pc
from polcomp.equilibrium1d import equilibrium_weights
from polcomp.equilibriumkd import SYMMETRY_TOL
from polcomp.model import _sorted_gap_lottery
from polcomp.payoffs import _SIMPSON_W, _SIMPSON_X


def grid_best_response(dist, nu, shock, opponent, n_points=10_000):
    """Brute-force best platform against a fixed opponent on a 1-D grid.

    Independent of the closed-form weights: scans expected_payoff over a
    uniform grid spanning the bliss range.
    """
    lo = float(dist.bliss[:, 0].min())
    hi = float(dist.bliss[:, 0].max())
    xs = np.linspace(lo, hi, n_points)
    best_x, best_v = xs[0], -np.inf
    for x in xs:
        v = pc.expected_payoff(dist, nu, shock, pc.PlatformPair([x], [opponent]), "A")
        if v > best_v:
            best_x, best_v = float(x), v
    return best_x, best_v


def grid_equilibrium_1d(dist, nu, shock, n_points=10_000, iters=8):
    """Fixed point of alternating grid best responses (high side, low side)."""
    lo = float(dist.bliss[:, 0].min())
    hi = float(dist.bliss[:, 0].max())
    x_hi, x_lo = hi, lo
    for _ in range(iters):
        new_hi, _ = grid_best_response(dist, nu, shock, x_lo, n_points)
        new_lo, _ = grid_best_response(dist, nu, shock, new_hi, n_points)
        if abs(new_hi - x_hi) < 1e-12 and abs(new_lo - x_lo) < 1e-12:
            x_hi, x_lo = new_hi, new_lo
            break
        x_hi, x_lo = new_hi, new_lo
    return x_lo, x_hi


def central_difference(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def shock_for(dist, margin=1.0):
    """Shock wide enough to cover every achievable preference gap."""
    hi = dist.bliss.max(axis=0)
    lo = dist.bliss.min(axis=0)
    return pc.Shock(float(np.sum((hi - lo) ** 2)) + margin)


MAX_REDRAWS = 10_000


def _min_pairwise_distance(bliss):
    """Smallest Euclidean distance between two rows.

    In one dimension the closest pair is adjacent in sorted order, and
    rounded subtraction is monotone, so the sorted differences give the
    pairwise matrix's minimum bit for bit at O(N log N).
    """
    if bliss.shape[1] == 1:
        return np.sqrt(np.diff(np.sort(bliss[:, 0])) ** 2).min(initial=np.inf)
    diffs = bliss[:, None, :] - bliss[None, :, :]
    dist_mat = np.sqrt(np.sum(diffs**2, axis=2))
    np.fill_diagonal(dist_mat, np.inf)
    return dist_mat.min()


def random_diverse_instance(rng, n_types=None, dim=1, scale=1.0):
    """Random electorate with well-separated types and interior shares.

    Redraws the bliss points until every pair is farther apart than
    0.05 × scale; raises ValueError after MAX_REDRAWS draws.
    """
    if n_types is None:
        n_types = int(rng.integers(2, 7))
    spacing = 0.05 * scale
    for _ in range(MAX_REDRAWS):
        bliss = rng.uniform(-scale, scale, size=(n_types, dim))
        if _min_pairwise_distance(bliss) > spacing:
            break
    else:
        raise ValueError(f"no draw of n_types={n_types} points in dim={dim} with spacing "
                         f"above {spacing:g} in {MAX_REDRAWS} tries")
    shares = rng.uniform(0.5, 1.5, size=n_types)
    shares = shares / shares.sum()
    return pc.VoterDistribution(bliss, shares)


def random_symmetric_instance(rng, n_pairs=None, dim=2, center_type=False, scale=1.0):
    """Random electorate symmetric through its mean bliss point.

    Redraws the mirror pairs until every two of their points are farther
    apart than 0.05 × scale; raises ValueError after MAX_REDRAWS draws.
    """
    if n_pairs is None:
        n_pairs = int(rng.integers(1, 4))
    center = rng.uniform(-0.5, 0.5, size=dim)
    spacing = 0.05 * scale
    for _ in range(MAX_REDRAWS):
        offsets = rng.uniform(0.1, scale, size=(n_pairs, dim))
        offsets *= rng.choice([-1.0, 1.0], size=(n_pairs, dim))
        pts = np.vstack([center + offsets, center - offsets])
        if _min_pairwise_distance(pts) > spacing:
            break
    else:
        raise ValueError(f"no draw of n_pairs={n_pairs} mirror pairs in dim={dim} with "
                         f"spacing above {spacing:g} in {MAX_REDRAWS} tries")
    pair_shares = rng.uniform(0.5, 1.5, size=n_pairs)
    if center_type:
        total = pair_shares.sum() * rng.uniform(1.1, 1.6)
        center_share = 1.0 - pair_shares.sum() / total
        pair_shares = pair_shares / total
        pts = np.vstack([pts, center])
        shares = np.concatenate([pair_shares / 2.0, pair_shares / 2.0, [center_share]])
    else:
        pair_shares = pair_shares / pair_shares.sum()
        shares = np.concatenate([pair_shares / 2.0, pair_shares / 2.0])
    return pc.VoterDistribution(pts, shares)


def outward_spread(dist, amount):
    """Shift every type away from the median by ``amount`` (1-D helper)."""
    median, _ = pc.median_bliss(dist)
    x = dist.bliss[:, 0]
    shift = np.where(x > median, amount, np.where(x < median, -amount, 0.0))
    return pc.VoterDistribution((x + shift).reshape(-1, 1), dist.shares, dist.labels)


def outward_directional_spread(dist, direction, amount):
    """Translate every type outward along a direction by the sign of its projection."""
    d = np.asarray(direction, dtype=float)
    unit = d / np.linalg.norm(d)
    proj = dist.bliss @ unit
    center = float(dist.shares @ proj)
    signs = np.sign(proj - center)
    return pc.VoterDistribution(dist.bliss + amount * signs[:, None] * unit[None, :],
                                dist.shares, dist.labels)


def oracle_ranking_platforms(dist, nu):
    """``(perm, high, low)`` for every permutation, one ranking at a time.

    Reference for the batched ranking table: weights from
    ``equilibrium_weights`` on the ranked shares, then weighted sums of
    the ranked bliss points. Lexicographic order, no cap.
    """
    out = []
    for perm in itertools.permutations(range(dist.n_types)):
        idx = np.asarray(perm, dtype=int)
        w_low, w_high = equilibrium_weights(dist.shares[idx], nu)
        pts = dist.bliss[idx]
        out.append((perm, w_high @ pts, w_low @ pts))
    return out


def oracle_local_equilibria(dist, nu, shock):
    """Self-consistent rankings by ``induced_ranking`` on each permutation.

    Returns ``(ranking, x_a, x_b, sq_distance, payoff)`` tuples in
    lexicographic order, the payoff from the distance identity.
    """
    base = 0.5 * (nu.value_at_one + nu.value_at_zero)
    found = []
    for perm, high, low in oracle_ranking_platforms(dist, nu):
        pair = pc.PlatformPair(high, low)
        if pc.induced_ranking(pair, dist) != perm:
            continue
        sq = pair.sq_distance
        found.append((perm, pair.x_a, pair.x_b, sq, base + sq / (2.0 * shock.half_width)))
    return found


def oracle_candidates(dist, nu, rankings=None):
    """Every ranking's high then low platform, stacked in lexicographic order.

    With ``rankings`` (a set of tuples), only those rankings contribute.
    """
    return np.vstack([side for perm, high, low in oracle_ranking_platforms(dist, nu)
                      if rankings is None or perm in rankings for side in (high, low)])


def _strictly_feasible(rows):
    """Whether some d has a·d > 0 for every row a (lists of Fractions), exactly.

    Fourier–Motzkin elimination, one coordinate at a time: a positive and a
    negative coefficient combine with positive multipliers, and a variable
    with one sign only can always be chosen to satisfy its rows. The system
    is infeasible exactly when a row becomes all zeros (Gordan's
    alternative).
    """
    while rows:
        if any(not any(a) for a in rows):
            return False
        pos = [a for a in rows if a[-1] > 0]
        neg = [a for a in rows if a[-1] < 0]
        rows = [a[:-1] for a in rows if a[-1] == 0]
        if pos and neg:
            rows += [[-q[-1] * pi + p[-1] * qi for pi, qi in zip(p[:-1], q[:-1])]
                     for p in pos for q in neg]
    return True


def oracle_realizable_rankings(dist):
    """Set of rankings (ascending x·d) that some direction d realizes, in exact arithmetic.

    Depth-first over prefixes on the float bliss points taken as exact
    rationals; a prefix no direction realizes is pruned with all its
    extensions.
    """
    pts = [[Fraction(float(v)) for v in row] for row in dist.bliss]
    found = set()

    def extend(prefix, rows):
        if len(prefix) == dist.n_types:
            found.add(tuple(prefix))
            return
        for t in range(dist.n_types):
            if t in prefix:
                continue
            new = rows + [[b - a for a, b in zip(pts[prefix[-1]], pts[t])]] if prefix else rows
            if _strictly_feasible(new):
                extend(prefix + [t], new)

    extend([], [])
    return found


def oracle_duplicate_pair(bliss):
    """First ``(i, j)`` with coinciding bliss rows, by the pairwise loop; None if none."""
    pts = np.asarray(bliss, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    for i in range(pts.shape[0]):
        for j in range(i + 1, pts.shape[0]):
            if np.array_equal(pts[i], pts[j]):
                return i, j
    return None


def oracle_is_symmetric(dist):
    """Greedy mirror pairing by the pairwise loop, lowest unpaired index first."""
    targets = 2.0 * dist.mean_bliss() - dist.bliss
    unused = set(range(dist.n_types))
    for i in range(dist.n_types):
        if i not in unused:
            continue
        match = None
        for j in sorted(unused):
            if (np.max(np.abs(dist.bliss[j] - targets[i])) <= SYMMETRY_TOL
                    and abs(dist.shares[j] - dist.shares[i]) <= SYMMETRY_TOL):
                match = j
                break
        if match is None:
            return False
        unused.discard(i)
        unused.discard(match)
    return True


def oracle_median_bliss(dist):
    """``(median, index)`` by walking the ascending cumulative shares one type at a time."""
    order = dist.ascending_order()
    x = dist.bliss[order, 0]
    heads = np.cumsum(dist.shares[order])
    for i, h in enumerate(heads):
        if abs(h - 0.5) <= 1e-12:
            return 0.5 * (x[i] + x[i + 1]), None
        if h > 0.5:
            return float(x[i]), int(order[i])
    raise AssertionError("cumulative shares never reached one half")


def oracle_median_position(ranking, dist):
    """``(position, straddling)`` from the masses strictly below and above each position."""
    heads = np.cumsum(dist.shares[np.asarray(ranking, dtype=int)])
    if np.any(np.abs(heads[:-1] - 0.5) <= 1e-12):
        return None, True
    below = np.concatenate(([0.0], heads[:-1]))
    above = 1.0 - heads
    ok = np.flatnonzero((below < 0.5) & (above < 0.5))
    assert len(ok) == 1, "median position is not unique"
    return int(ok[0]), False


def oracle_fosd(values_a, mass_a, values_b, mass_b):
    """``(dominates, strict)`` with each CDF summed over a mask per grid point."""
    grid = np.unique(np.concatenate((values_a, values_b)))
    cdf_a = np.array([mass_a[values_a <= t + 1e-12].sum() for t in grid])
    cdf_b = np.array([mass_b[values_b <= t + 1e-12].sum() for t in grid])
    gap = cdf_b - cdf_a
    return bool(np.all(gap >= -1e-12)), bool(np.any(gap > 1e-12))


def fresh_solve(fn, dist, *args):
    """``fn`` on a new copy of ``dist``, which has no stored solve: every call solves anew."""
    copy = pc.VoterDistribution(dist.bliss.copy(), dist.shares.copy(), dist.labels)
    return fn(copy, *args)


def oracle_premium_sweep(dist, utility, total_power, premiums, shock):
    """``premium_sweep`` composed from the model objects, one premium at a time.

    Per premium: the power map, the composed reduced payoff, the checked
    closed-form solve, the policy lottery and the welfare decomposition,
    on a fresh copy of ``dist`` so that no row reads what another stored.
    """
    premiums = [float(p) for p in premiums]
    for p in premiums:
        if not 0.0 <= p < total_power:
            raise pc.PreconditionError(f"premium {p:g} outside [0, total)")
    median, idx = pc.median_bliss(dist)
    share = float(dist.shares[idx]) if idx is not None else 0.0
    rows = []
    for p in premiums:
        fresh = pc.VoterDistribution(dist.bliss.copy(), dist.shares.copy(), dist.labels)
        power = pc.majority_premium_power(total_power, p)
        nu = pc.compose_reduced_payoff(utility, power, normalize=True)
        eq = pc.equilibrium_1d(fresh, nu, shock)
        rep = pc.welfare_decomposition(pc.policy_lottery(eq.pair, fresh, power, shock), fresh)
        rows.append(pc.SweepRow(rho_m=p, x_low=eq.x_low, x_high=eq.x_high, distance=eq.distance,
                                mean=rep.mean_policy, variance=rep.variance,
                                bias_sq=rep.bias_sq, welfare=rep.welfare))
    return pc.PremiumSweep(rows=tuple(rows), median=median, median_share=share,
                           limit_assertions=share > 0.0)


def oracle_policy_merge(outcomes, probabilities):
    """``(outcomes, probabilities)`` merged by the one-outcome-at-a-time loop.

    Stable sort, then each outcome within 1e-12 of its block's first outcome
    joins that block and adds its probability to a running sum.
    """
    merged_x, merged_p = [], []
    for i in np.argsort(outcomes, kind="stable"):
        if merged_x and abs(outcomes[i] - merged_x[-1]) <= 1e-12:
            merged_p[-1] += probabilities[i]
        else:
            merged_x.append(float(outcomes[i]))
            merged_p.append(float(probabilities[i]))
    return np.array(merged_x), np.array(merged_p)


def oracle_direct_welfare(lottery, dist):
    """Expected welfare of a policy lottery, one outcome at a time."""
    x = dist.bliss[:, 0]
    return float(sum(p * -(dist.shares @ (xi - x) ** 2)
                     for xi, p in zip(lottery.outcomes, lottery.probabilities)))


def oracle_monte_carlo_payoff(dist, nu, shock, pair, party="A", n_draws=100_000, seed=0):
    """Monte-Carlo payoff by a binary search of every shock, drawn in one call.

    Reference for ``pc.monte_carlo_payoff``: the same seeded draws, each
    shock's interval by ``np.searchsorted`` over the sorted gaps, and one
    mean over the gathered values.
    """
    gaps = pc.preference_gaps(pair, dist)
    order = np.argsort(gaps, kind="stable")
    g = gaps[order]
    tails, _ = _sorted_gap_lottery(g, dist.shares[order], shock.half_width)
    if party == "B":
        tails = 1.0 - tails
    rng = np.random.default_rng(seed)
    eps = rng.uniform(-shock.half_width, shock.half_width, size=n_draws)
    idx = np.searchsorted(g, eps, side="left")
    values = np.asarray(nu.evaluate(tails), dtype=float)
    return float(values[idx].mean())


# value schedules for the placement-utility bit checks: the preset's, a
# transcendental one, and one whose slope is not a power of two
PLACEMENT_SCHEDULES = {
    "linear": lambda k: 2.0 - 2.0 * k,
    "exp": lambda k: np.exp(-k),
    "affine": lambda k: 3.0 - 1.3 * k,
}


def oracle_placement_utility(q, power):
    """Placement utility as one Simpson product over every input point at once."""
    p = np.asarray(power, dtype=float)
    flat = p.reshape(-1)
    out = flat * (np.asarray(q(flat[:, None] * _SIMPSON_X), dtype=float) @ _SIMPSON_W)
    return out.reshape(p.shape) if p.shape else out[0]


def placement_points(shape):
    """Seeded powers in [0, 1] of the given shape."""
    return np.random.default_rng([7, *shape]).uniform(0.0, 1.0, shape)


def placement_bit_digests(shapes, oracle=True):
    """SHA-256 of the kernel's (and the oracle's) float64 bits, per schedule and shape."""
    def digest(values):
        return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()

    out = {}
    for name, q in PLACEMENT_SCHEDULES.items():
        u = pc.utility_from_placements(pc.PlacementProfile(q, capacity=1.0))
        for shape in map(tuple, shapes):
            x = placement_points(shape)
            case = out[f"{name} {shape}"] = {"kernel": digest(u.evaluate(x))}
            if oracle:
                case["oracle"] = digest(oracle_placement_utility(q, x))
    return out
