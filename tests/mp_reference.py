"""High-precision reference route for the tests, free of the package.

The post-measured spectrum comes from the explicit density matrix: the
conditional 2x2 state of qubit A for each projector on qubit B, diagonalized
by the quadratic formula, all in mpmath.  Derivatives are mpmath numerical
derivatives of that entropy, and every solve is an ``mp.findroot`` at 40
digits.  Tests that use this module call ``pytest.importorskip("mpmath")``
first.
"""

try:
    import mpmath as mp
except ImportError:  # the tests that need it skip
    mp = None

DPS = 40


def spectrum(q1, q2, theta, weight00=None):
    """The four eigenvalues of the post-measured state, at the working precision.

    Two per projector on qubit B, the larger first: each is continuous in
    theta, so the k-th eigenvalue at theta continues the k-th at 0.  The
    weight of |00> is 1 - q1 - q2, or ``weight00`` when given: a test sets
    it to the 1 - fl(q1 + q2) of the closed forms.
    """
    rho = [[mp.mpf(0)] * 4 for _ in range(4)]
    rho[0][0] = 1 - q1 - q2 if weight00 is None else weight00
    rho[1][1] = rho[2][2] = (q1 + q2) / 2
    rho[1][2] = rho[2][1] = (q1 - q2) / 2
    c, s = mp.cos(theta / 2), mp.sin(theta / 2)
    lams = []
    for b in ((c, s), (-s, c)):
        m = [
            [
                sum(b[k] * rho[2 * i + k][2 * j + l] * b[l] for k in (0, 1) for l in (0, 1))
                for j in (0, 1)
            ]
            for i in (0, 1)
        ]
        half_tr = (m[0][0] + m[1][1]) / 2
        half_gap = mp.sqrt(((m[0][0] - m[1][1]) / 2) ** 2 + m[0][1] ** 2)
        lams += [half_tr + half_gap, half_tr - half_gap]
    return lams


def entropy(q1, q2, theta, weight00=None):
    """Post-measured entropy in bits from the density matrix, at the working precision."""
    out = mp.mpf(0)
    for lam in spectrum(q1, q2, theta, weight00):
        if lam > 0:
            out -= lam * mp.log(lam, 2)
    return out


def curvature(q1: float, q2: float, theta: float, dps: int = 30) -> float:
    """d2S/dtheta2 at a float state and angle, differentiated at ``dps`` digits."""
    with mp.workdps(dps):
        q1, q2 = mp.mpf(q1), mp.mpf(q2)
        return float(mp.diff(lambda t: entropy(q1, q2, t), mp.mpf(theta), 2))


def deflated_slope(q1: float, q2: float, theta: float, dps: int = DPS) -> float:
    """dS/dtheta over cos(theta) at a float state and angle, at ``dps`` digits.

    The float angle is taken exactly, and its cosine is that of the exact
    pi, so at the float nearest pi/2 the quotient stays finite: it is then
    -d2S/dtheta2 there to within ~1e-16 relative.
    """
    with mp.workdps(dps):
        q1, q2, theta = mp.mpf(q1), mp.mpf(q2), mp.mpf(theta)
        return float(mp.diff(lambda t: entropy(q1, q2, t), theta) / mp.cos(theta))


def slope_root(q1: float, q2: float, theta0: float) -> float:
    """Root of dS/dtheta near ``theta0`` at a float state, solved at 40 digits."""
    with mp.workdps(DPS):
        q1, q2 = mp.mpf(q1), mp.mpf(q2)
        curve = lambda t: entropy(q1, q2, t)
        return float(mp.findroot(lambda t: mp.diff(curve, t), mp.mpf(theta0)))


def jump_point(total, q1_0, theta0, dps: int = DPS):
    """(q1, theta, S''(theta)) solving {dS/dtheta = 0, S(theta) = S(0)} on q1 + q2 = total.

    A Newton solve in (q1, theta) at ``dps`` digits, 40 by default, seeded
    at (q1_0, theta0); the values come back as mpmath numbers.
    """
    with mp.workdps(dps):
        total = mp.mpf(str(total))

        def equations(q1, theta):
            curve = lambda t: entropy(q1, total - q1, t)
            return [mp.diff(curve, theta), curve(theta) - curve(0)]

        q1, theta = mp.findroot(equations, (mp.mpf(str(q1_0)), mp.mpf(str(theta0))))
        curvature = mp.diff(lambda t: entropy(q1, total - q1, t), theta, 2)
    return q1, theta, curvature


def curves_intersection(q1_0: float, total_0: float) -> tuple[float, float]:
    """(q1, q2) solving {S(0) = S(pi/2), S''(pi/2) = 0}, seeded at (q1_0, total_0)."""
    with mp.workdps(DPS):
        half_pi = mp.pi / 2

        def equations(q1, total):
            curve = lambda t: entropy(q1, total - q1, t)
            return [curve(0) - curve(half_pi), mp.diff(curve, half_pi, 2)]

        q1, total = mp.findroot(equations, (mp.mpf(str(q1_0)), mp.mpf(str(total_0))))
    return float(q1), float(total - q1)


def birth_point(total, q1_0, theta0):
    """(q1, theta) solving {dS/dtheta = 0, d2S/dtheta2 = 0} on q1 + q2 = total.

    The fold of dS/dtheta at which an extremum pair is born out of an
    inflection: a 40-digit Newton solve in (q1, theta) seeded at
    (q1_0, theta0).  The values come back as mpmath numbers.
    """
    with mp.workdps(DPS):
        total = mp.mpf(str(total))

        def equations(q1, theta):
            curve = lambda t: entropy(q1, total - q1, t)
            return [mp.diff(curve, theta), mp.diff(curve, theta, 2)]

        q1, theta = mp.findroot(equations, (mp.mpf(str(q1_0)), mp.mpf(str(theta0))))
    return q1, theta
