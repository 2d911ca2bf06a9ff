"""Reference values of the scale functions W, W' and Z at 30 digits.

Brownian input and compound Poisson input with exponential jumps have
rational exponents, so W is a sum of exponentials over the roots of
phi(beta) = alpha, written out here in mpmath.  For gamma and inverse
Gaussian input W, W' and Wbar are inverted with ``mpmath.invertlaplace``
(Talbot) from their exponentially tilted transforms, at a working precision
well above the 30 digits kept; W' has its own transform,
p / (phi(p + eta) - alpha) - W(0+), and Z = 1 + alpha Wbar.

Run from the root of the checkout to rewrite the committed table:

    python tests/scale_reference.py

It takes about ten seconds.  ``tests/test_scale.py`` compares every method
against the table and regenerates a few entries with ``entry``.
"""

import json
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parent / "data" / "scale_reference.json"
DIGITS = 30
WORK_DPS = 60

# (name, family, parameters): the constructor of each model in levydam
MODELS = [
    ("bm", "brownian", {"mu": 1.0, "sigma2": 2.0}),
    ("cp", "compound_poisson_exp", {"zeta": 2.0, "rate": 1.0, "jump_mean": 1.0}),
    ("gamma", "GammaDrift", {"zeta": 1.0, "a": 1.0, "b": 2.0}),
    ("ig", "InverseGaussianDrift", {"zeta": 1.0, "sigma": 1.0, "c": 2.0}),
]
ALPHAS = [0.0, 0.5, 2.0]
XS = [1e-5, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]


def _exponent(family, p):
    """phi of gamma or inverse Gaussian input for mpmath numbers, and
    W(0+) = 1/zeta."""
    zeta = mp.mpf(p["zeta"])
    if family == "GammaDrift":
        a, b = mp.mpf(p["a"]), mp.mpf(p["b"])
        psi = lambda s: a * mp.log(1 + s / b)
    else:
        sig, c = mp.mpf(p["sigma"]), mp.mpf(p["c"])
        psi = lambda s: (mp.sqrt(c * c + 2 * sig * sig * s) - c) / (sig * sig)
    return (lambda s: zeta * s - psi(s)), 1 / zeta


def _eta(phi, alpha):
    """The largest root of phi = alpha: 0 at alpha = 0 when phi'(0) >= 0,
    as for every model here."""
    if alpha == 0:
        return mp.mpf(0)
    hi = mp.mpf(1)
    while phi(hi) <= alpha:
        hi *= 2
    return mp.findroot(lambda b: phi(b) - alpha, (mp.mpf(0), hi),
                       solver="anderson")


def _sum_of_exponentials(family, p, alpha):
    """(theta_i, c_i) with W(x) = sum c_i exp(theta_i x)."""
    if family == "brownian":
        mu, s2 = mp.mpf(p["mu"]), mp.mpf(p["sigma2"])
        # phi - alpha = (s2/2) (b - t1) (b - t2)
        d = mp.sqrt(mu * mu + 2 * alpha * s2)
        t1, t2 = (mu + d) / s2, (mu - d) / s2
        return [(t1, 2 / (s2 * (t1 - t2))), (t2, 2 / (s2 * (t2 - t1)))]
    zeta, rate = mp.mpf(p["zeta"]), mp.mpf(p["rate"])
    rb = 1 / mp.mpf(p["jump_mean"])
    # 1/(phi - alpha) = (b + rb) / (zeta (b - t1) (b - t2))
    qa, qb, qc = zeta, zeta * rb - rate - alpha, -alpha * rb
    d = mp.sqrt(qb * qb - 4 * qa * qc)
    t1, t2 = (-qb + d) / (2 * qa), (-qb - d) / (2 * qa)
    return [(t1, (t1 + rb) / (zeta * (t1 - t2))),
            (t2, (t2 + rb) / (zeta * (t2 - t1)))]


def entry(name, alpha, x):
    """W, W' and Z of the named model at (alpha, x), as strings of DIGITS
    significant digits."""
    family, p = next((f, p) for n, f, p in MODELS if n == name)
    with mp.workdps(WORK_DPS):
        alpha, x = mp.mpf(alpha), mp.mpf(x)
        if family in ("brownian", "compound_poisson_exp"):
            terms = _sum_of_exponentials(family, p, alpha)
            w = sum(c * mp.exp(t * x) for t, c in terms)
            wp = sum(c * t * mp.exp(t * x) for t, c in terms)
            wbar = sum(c * (mp.expm1(t * x) / t if t != 0 else x)
                       for t, c in terms)
        else:
            phi, w0 = _exponent(family, p)
            eta = _eta(phi, alpha)
            tilt = mp.exp(eta * x)

            def inv(f):
                return tilt * mp.invertlaplace(f, x, method="talbot")

            w = inv(lambda s: 1 / (phi(s + eta) - alpha))
            wp = eta * w + inv(lambda s: s / (phi(s + eta) - alpha) - w0)
            wbar = inv(lambda s: 1 / ((s + eta) * (phi(s + eta) - alpha)))
        z = 1 + alpha * wbar
        return {k: mp.nstr(v, DIGITS, strip_zeros=False)
                for k, v in (("w", w), ("wp", wp), ("z", z))}


def table():
    return {
        "digits": DIGITS,
        "mpmath": mp.__version__,
        "models": {n: {"family": f, "params": p} for n, f, p in MODELS},
        "entries": [dict(model=n, alpha=a, x=x, **entry(n, a, x))
                    for n, _, _ in MODELS for a in ALPHAS for x in XS],
    }


if __name__ == "__main__":
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(table(), indent=1) + "\n")
    print(f"wrote {OUT}")
