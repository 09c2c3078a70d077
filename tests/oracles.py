"""High-precision reference values for the numerical test suite.

Everything here runs on 50-digit arbitrary-precision arithmetic (mpmath)
and is deliberately independent of the library implementation: the
library evaluates special functions through its own quadrature rules,
while these oracles go through mpmath's series/continued-fraction
machinery.  Agreement between the two is therefore meaningful.

The one exception is crw2_selection_top_weights, a float64 covariance
form for walks of thousands of points, where a 50-digit solve is out of
reach.
"""

import mpmath as mp
import numpy as np
from scipy.linalg import circulant, eigh

mp.mp.dps = 50


def logbeta(a, b):
    return float(mp.log(mp.beta(mp.mpf(a), mp.mpf(b))))


def log_hyp2f1(a, b, c, z):
    return float(mp.log(mp.hyp2f1(mp.mpf(a), mp.mpf(b), mp.mpf(c), mp.mpf(z))))


def log_sum_exp(row):
    """log of the sum of e^x over a row of finite or -inf floats."""
    return float(mp.log(mp.fsum(mp.exp(mp.mpf(x)) for x in row)))


def log_hyperu(a, b, z):
    return float(mp.log(mp.hyperu(mp.mpf(a), mp.mpf(b), mp.mpf(z))))


def b2_pdf(s, b, p, q):
    s, b, p, q = map(mp.mpf, (s, b, p, q))
    return float(b**q / mp.beta(p, q) * s ** (-q - 1) * (1 + b / s) ** (-p - q))


def b2_cdf(s, b, p, q):
    s, b, p, q = map(mp.mpf, (s, b, p, q))
    return float(mp.betainc(p, q, 0, s / (s + b), regularized=True))


def gamma_mixture_marginal_pdf(x, alpha, beta, b, p, q):
    """Marginal density of X where X | y ~ Gamma(alpha, rate beta/y) and
    y follows a beta-prime law with scale b and shapes (p, q).

    Kummer-U closed form; the reference for the library's own evaluation.
    """
    x, al, be, b, p, q = map(mp.mpf, (x, alpha, beta, b, p, q))
    z = x * be / b
    const = be * mp.gamma(al + q) * mp.gamma(p + q) / (
        b * mp.gamma(al) * mp.gamma(p) * mp.gamma(q)
    )
    return float(const * z ** (al - 1) * mp.hyperu(al + q, 1 + al - p, z))


def scale_mixing_pdf(s, alpha, beta, alpha_t, beta_t, b, p, q):
    """Closed-form mixing density on the scale parameter: the prior whose
    Gamma(alpha_t, rate beta_t/s) mixture reproduces the
    gamma_mixture_marginal_pdf benchmark above.
    """
    s, al, be, alt, bet, b, p, q = map(mp.mpf, (s, alpha, beta, alpha_t, beta_t, b, p, q))
    K = (
        (b * bet / be) ** q
        / mp.beta(p, q)
        * mp.gamma(alt)
        / mp.gamma(q + alt)
        * mp.gamma(q + al)
        / mp.gamma(al)
    )
    return float(K * s ** (-q - 1) * mp.hyp2f1(q + al, q + p, q + alt, -b * bet / (s * be)))


def quad_positive(f, points):
    """Adaptive high-precision quadrature of a positive integrand over the
    subdivision given by `points` (mpmath handles the infinite endpoint)."""
    return float(mp.quad(f, points))


def qf_cdf(x, weights):
    """P(sum_i w_i chi2_1 <= x) by characteristic-function inversion
    (Imhof's oscillatory integral), dps-30 mpmath. Slow (~2s/point); the
    test files pin values generated by this function."""
    lam = [mp.mpf(w) for w in weights]
    x = mp.mpf(x)

    def f(u):
        theta = mp.fsum(mp.atan(l * u) for l in lam) / 2 - x * u / 2
        rho = mp.fprod((1 + (l * u) ** 2) ** mp.mpf("0.25") for l in lam)
        return mp.sin(theta) / (u * rho)

    return mp.mpf("0.5") - mp.quadosc(f, [0, mp.inf], period=4 * mp.pi / x) / mp.pi


def benchmark_quantile(n, pi0, p, q, x_start, dps=30):
    """The pi0-quantile of the unit-scale marginal benchmark for predictor
    length n: the root of F(x) = pi0 with

        F(x) = int_0^1 Beta(w; p, q) P((n-1)/2, (n-1)/2 x (1-w)/w) dw,

    integrated with the range split where the incomplete gamma factor
    steps down, w = x/(1+x), and solved from the guess x_start in log x.
    Takes seconds to a minute a point; the tests pin values it produced."""
    with mp.workdps(dps):
        a = mp.mpf(n - 1) / 2
        p, q, pi0 = mp.mpf(p), mp.mpf(q), mp.mpf(pi0)

        def cdf(x):
            def f(w):
                return w ** (p - 1) * (1 - w) ** (q - 1) * mp.gammainc(
                    a, 0, a * x * (1 - w) / w, regularized=True
                )

            return mp.quad(f, [0, x / (1 + x), 1]) / mp.beta(p, q)

        y = mp.findroot(lambda y: cdf(mp.exp(y)) - pi0, mp.log(mp.mpf(x_start)))
        return float(mp.exp(y))


def probit_pseudo_variance(mean):
    """m (1 - m) / phi(Phi^-1(m))^2 through the inverse error function."""
    m = mp.mpf(mean)
    z = mp.sqrt(2) * mp.erfinv(2 * m - 1)
    density = mp.exp(-z * z / 2) / mp.sqrt(2 * mp.pi)
    return float(m * (1 - m) / density**2)


def walk_spectrum(kind, n):
    """Nonzero eigenvalues of an rw1, crw1 or crw2 precision on n points,
    ascending, from the textbook forms 2 - 2 cos(pi k / n) (rw1),
    2 - 2 cos(2 pi k / n) (crw1) and its square (crw2), k = 1..n-1."""
    angle = {"rw1": mp.pi / n, "crw1": 2 * mp.pi / n, "crw2": 2 * mp.pi / n}[kind]
    power = 2 if kind == "crw2" else 1
    return sorted(float((2 - 2 * mp.cos(angle * k)) ** power) for k in range(1, n))


def centered_effect_weights(z, k):
    """Nonzero eigenvalues of (Z'MZ) K+ for a structure K whose null
    space is the constant, ascending: those of the n x n matrix
    M Z K+ Z' M at 50 digits, with K+ = (K + 11'/n_g)^-1 - 11'/n_g."""
    n, n_g = len(z), len(k)
    z = mp.matrix([[mp.mpf(float(v)) for v in row] for row in z])
    ones = mp.ones(n_g, n_g) / n_g
    k_plus = (mp.matrix([[mp.mpf(float(v)) for v in row] for row in k]) + ones) ** -1 - ones
    center = mp.eye(n) - mp.ones(n, n) / n
    gram = center * z * k_plus * z.T * center
    eigs = mp.eigsy(gram, eigvals_only=True)
    return sorted(float(e) for e in eigs)[n - n_g + 1:]


def crw2_selection_top_weights(counts, top):
    """The `top` largest weights, ascending, of a second-order circular
    walk on n = len(counts) points under a selection design that observes
    point i counts[i] >= 1 times: the top eigenvalues of the covariance
    form P S K+ S P, with S = diag(s), s = sqrt(counts), P = I - ss'/N,
    N = sum(counts), and K+ the circulant whose symbol is
    1 / (16 sin^4(pi k / n)), 0 at k = 0, built by inverse FFT. The
    largest eigenvalues of a covariance are accurate to a few n eps
    relative, whereas the precision form D^-1/2 K D^-1/2 loses
    eps * lambda_max / lambda_min on its smallest ones."""
    counts = np.asarray(counts, dtype=float)
    n = counts.size
    symbol = 16.0 * np.sin(np.pi * np.arange(1, n) / n) ** 4
    k_plus = circulant(np.fft.ifft(np.concatenate(([0.0], 1.0 / symbol))).real)
    s = np.sqrt(counts)
    p = np.eye(n) - np.outer(s, s) / counts.sum()
    cov = p @ (s[:, None] * k_plus * s) @ p
    return eigh(cov, eigvals_only=True, subset_by_index=[n - top, n - 1])
