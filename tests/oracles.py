"""Independent brute-force reference implementations used by the test suite.

Everything here is written as plain per-sample loops with no shared code or
vectorization tricks, so agreement with the library is meaningful.  Keep these
naive on purpose.
"""

from __future__ import annotations

import math

EPS = 1e-12


def _sign(v: float) -> float:
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


def o_set_jaccard(a, b) -> float:
    inter = 0
    union = 0
    for x, y in zip(a, b):
        if x != 0 or y != 0:
            union += 1
        if x != 0 and y != 0:
            inter += 1
    return inter / union if union else 0.0


def o_multiset_jaccard(a, b) -> float:
    num = 0.0
    den = 0.0
    for x, y in zip(a, b):
        num += min(x, y)
        den += max(x, y)
    return num / den if den else 0.0


def o_signed_min(f, g, dx: float) -> float:
    total = 0.0
    for x, y in zip(f, g):
        total += _sign(x) * _sign(y) * min(abs(x), abs(y))
    return dx * total


def o_abs_union(f, g, dx: float) -> float:
    total = 0.0
    for x, y in zip(f, g):
        total += max(abs(x), abs(y))
    return dx * total


def o_s_plus(f, g, dx: float) -> float:
    total = 0.0
    for x, y in zip(f, g):
        total += abs(_sign(x) + _sign(y)) / 2.0 * min(_sign(x) * x, _sign(y) * y)
    return dx * total


def o_s_minus(f, g, dx: float) -> float:
    total = 0.0
    for x, y in zip(f, g):
        total += abs(_sign(x) - _sign(y)) / 2.0 * min(_sign(x) * x, _sign(y) * y)
    return dx * total


def o_s_pm(f, g, dx: float, alpha: float, normalized: bool = False) -> float:
    raw = alpha * o_s_plus(f, g, dx) - (1.0 - alpha) * o_s_minus(f, g, dx)
    return 2.0 * raw if normalized else raw


def o_abs_area(f, dx: float) -> float:
    total = 0.0
    for x in f:
        total += abs(x)
    return dx * total


def o_jaccard_real(f, g, dx: float, eps: float = EPS) -> float:
    den = o_abs_union(f, g, dx)
    if den < eps:
        return 0.0
    return o_signed_min(f, g, dx) / den


def o_interiority(f, g, dx: float, eps: float = EPS,
                  signed: bool = False) -> float:
    den = min(o_abs_area(f, dx), o_abs_area(g, dx))
    if den < eps:
        return 0.0
    if signed:
        num = 0.0
        for x, y in zip(f, g):
            num += _sign(x) * _sign(y) * min(abs(x), abs(y))
        num *= dx
        return max(-1.0, min(1.0, num / den))
    num = 0.0
    for x, y in zip(f, g):
        num += min(abs(x), abs(y))
    num *= dx
    return max(0.0, min(1.0, num / den))


def o_coincidence(f, g, dx: float, eps: float = EPS) -> float:
    return o_jaccard_real(f, g, dx, eps) * o_interiority(f, g, dx, eps)


def o_jaccard_addition(f, g, dx: float, eps: float = EPS,
                       abs_den: bool = False) -> float:
    den = 0.0
    for x, y in zip(f, g):
        den += (abs(x) + abs(y)) if abs_den else (x + y)
    den *= dx
    if abs(den) < eps:
        return 0.0
    return 2.0 * o_signed_min(f, g, dx) / den


def o_coincidence_addition(f, g, dx: float, eps: float = EPS,
                           abs_den: bool = False) -> float:
    return o_jaccard_addition(f, g, dx, eps, abs_den) * o_interiority(f, g, dx, eps)


def o_inner(f, g, dx: float) -> float:
    total = 0.0
    for x, y in zip(f, g):
        total += x * y
    return dx * total


# ---------------------------------------------------------------------------
# Sliding profiles: shift the template onto the object grid sample by sample
# and evaluate the index over the full grid, one lag at a time.

def _shifted_template(n: int, tpl, start: int) -> list[float]:
    g = [0.0] * n
    for j, v in enumerate(tpl):
        i = start + j
        if 0 <= i < n:
            g[i] = float(v)
    return g


def o_lag_geometry(n: int, m: int, boundary: str) -> tuple[int, int, float]:
    c = (m - 1) / 2.0
    if boundary == "valid":
        if m > n:
            raise ValueError(f"template ({m}) longer than object ({n}) under valid boundary")
        return 0, n - m + 1, c
    return -((m - 1) // 2), n, c


def o_profile(obj, x0: float, dx: float, tpl, tag: str,
              boundary: str = "pad", eps: float = EPS):
    """(lags, values) for one method, brute force at every lag.

    A combined_ tag runs two stages: the classic profile, divided by its
    largest magnitude unless that is below eps, is the object that the
    template slides over under the inner tag, from the first classic lag on.
    """
    if tag.startswith("combined_"):
        lags, values = o_profile(obj, x0, dx, tpl, "classic", boundary, eps)
        peak = max(abs(v) for v in values)
        if peak >= eps:
            values = [v / peak for v in values]
        return o_profile(values, lags[0], dx, tpl, tag[len("combined_"):], boundary, eps)
    n = len(obj)
    m = len(tpl)
    k0, n_lags, c = o_lag_geometry(n, m, boundary)
    f = [float(v) for v in obj]
    lags = []
    values = []
    for k in range(n_lags):
        g = _shifted_template(n, tpl, k0 + k)
        if tag == "classic":
            val = o_inner(f, g, dx)
        elif tag == "jaccard_real":
            val = o_jaccard_real(f, g, dx, eps)
        elif tag == "interiority":
            val = o_interiority(f, g, dx, eps)
        elif tag == "coincidence":
            val = o_coincidence(f, g, dx, eps)
        elif tag == "jaccard_addition":
            val = o_jaccard_addition(f, g, dx, eps)
        elif tag == "coincidence_addition":
            val = o_coincidence_addition(f, g, dx, eps)
        else:
            raise ValueError(f"unknown tag {tag!r}")
        lags.append(x0 + (k0 + k + c) * dx)
        values.append(val)
    return lags, values


# ---------------------------------------------------------------------------
# Peak detection, walking the profile one sample at a time.  Neighbours tie
# when they differ by at most 1e-12*max(1, |h1|); a tie run is a chain of ties.

def o_width(lags, values, peak: int, fraction: float = 0.75) -> float:
    level = fraction * values[peak]
    n = len(values)
    a = peak
    while a > 0 and values[a - 1] >= level:
        a -= 1
    if a == 0:
        left = lags[0]
    else:
        left = lags[a - 1] + ((lags[a] - lags[a - 1]) * (level - values[a - 1])
                              / (values[a] - values[a - 1]))
    b = peak
    while b < n - 1 and values[b + 1] >= level:
        b += 1
    if b == n - 1:
        right = lags[n - 1]
    else:
        right = lags[b] + ((lags[b + 1] - lags[b]) * (level - values[b])
                           / (values[b + 1] - values[b]))
    return right - left


def o_detect_peaks(lags, values, exclusion: float):
    """(x1, h1, w1, x2, h2, w2), the secondary three nan when absent.

    None when the profile is constant or its maximum is not positive.
    """
    n = len(values)
    i1 = 0
    for i in range(n):
        if values[i] > values[i1]:
            i1 = i
    if values[i1] <= 0.0:
        return None
    tol = 1e-12 * max(1.0, abs(values[i1]))

    def run(k):
        a = k
        while a > 0 and abs(values[a] - values[a - 1]) <= tol:
            a -= 1
        b = k
        while b < n - 1 and abs(values[b + 1] - values[b]) <= tol:
            b += 1
        return a, b

    a, b = run(i1)
    if a == 0 and b == n - 1:
        return None
    x1 = 0.5 * (lags[a] + lags[b])
    best = None
    for k in range(1, n - 1):
        if not (values[k] > values[k - 1] and values[k] >= values[k + 1] and values[k] > 0):
            continue
        a, b = run(k)
        xk = 0.5 * (lags[a] + lags[b])
        if abs(xk - x1) > exclusion and (best is None or values[k] > values[best[0]]):
            best = (k, xk)
    primary = (x1, values[i1], o_width(lags, values, i1))
    if best is None:
        return primary + (math.nan,) * 3
    k, xk = best
    return primary + (xk, values[k], o_width(lags, values, k))


# ---------------------------------------------------------------------------
# The six merit figures of a profile and its detected peaks, by their written
# formulas; the overlap is a Riemann sum between the two detected positions.

def o_figures(lags, values, spec, peaks):
    """[r_xp, r_xs, r_h, r_wp, r_ws, alpha_overlap] for o_detect_peaks' peaks of (lags,
    values), nan where one is missing: all six when peaks is None, the last five but r_wp
    when there is no secondary."""
    if peaks is None:
        return [math.nan] * 6
    x1, h1, w1, x2, h2, w2 = peaks
    r_xp = (spec.x_p - x1) / spec.x_p
    r_wp = w1 / h1
    if math.isnan(x2):
        return [r_xp, math.nan, math.nan, r_wp, math.nan, math.nan]
    r_xs = (spec.x_s - x2) / spec.x_s
    r_h = (h1 / h2) / (spec.h_p / spec.h_s)
    r_ws = w2 / h2
    lo, hi = min(x1, x2), max(x1, x2)
    dx = lags[1] - lags[0]
    total = 0.0
    for x, v in zip(lags, values):
        if lo <= x <= hi:
            total += v
    return [r_xp, r_xs, r_h, r_wp, r_ws, dx * total]


# ---------------------------------------------------------------------------
# Small symmetric eigenproblems by characteristic polynomial, for checking the
# eigensolver.

def o_eigvals_2x2(a, b, d) -> tuple[float, float]:
    """Eigenvalues of [[a, b], [b, d]], descending."""
    mean = 0.5 * (a + d)
    disc = math.sqrt(max(0.0, (0.5 * (a - d)) ** 2 + b * b))
    return mean + disc, mean - disc


def o_eigvals_3x3(mat) -> list[float]:
    """Eigenvalues of a symmetric 3x3 by the trigonometric cubic formula."""
    a, b, c = mat[0][0], mat[0][1], mat[0][2]
    d, e, f = mat[1][1], mat[1][2], mat[2][2]
    p1 = b * b + c * c + e * e
    q = (a + d + f) / 3.0
    p2 = (a - q) ** 2 + (d - q) ** 2 + (f - q) ** 2 + 2.0 * p1
    if p2 <= 0.0:
        return [a, d, f]
    p = math.sqrt(p2 / 6.0)
    # B = (A - q I) / p, det(B)/2 drives the phase
    b00, b11, b22 = (a - q) / p, (d - q) / p, (f - q) / p
    b01, b02, b12 = b / p, c / p, e / p
    detb = (b00 * (b11 * b22 - b12 * b12)
            - b01 * (b01 * b22 - b12 * b02)
            + b02 * (b01 * b12 - b11 * b02))
    r = max(-1.0, min(1.0, detb / 2.0))
    phi = math.acos(r) / 3.0
    eig1 = q + 2.0 * p * math.cos(phi)
    eig3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    eig2 = 3.0 * q - eig1 - eig3
    return sorted([eig1, eig2, eig3], reverse=True)
