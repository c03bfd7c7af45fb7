"""Exact laws the benchmark checks the program's estimates against.

Everything here is computed with numpy and scipy alone, from closed forms
that follow from the models, never from the package under test.

* Neutral Wright–Fisher: the fixation probability of an allele is its
  starting frequency (the frequencies are martingales).
* Cross-fed drift: ``S = X₁ + X₂`` solves ``dS = S dt + √(2S) dW``, whose
  scale function is ``−e^{−s}``, so ``P(S reaches ε) = e^{−(s₀−ε)}``.
* Product of ``x∂²`` and ``x∂² + ∂``: the factors are independent.  The
  first is a Feller diffusion absorbed at 0 with ``P(τ ≤ t) = e^{−x₀/t}``;
  the second is ``Y = Z/2`` with ``Z`` a squared Bessel process of
  dimension 2, so ``2Y_t/t`` is noncentral χ² with 2 degrees of freedom
  and noncentrality ``2y₀/t``.
* Wright–Fisher (N = 1), generator ``½x(1−x)∂²``: ``x`` is a martingale
  and ``x(1−x)`` an eigenfunction with eigenvalue −1.
"""

from __future__ import annotations

import math

from scipy import integrate, stats

# Family-wise false-alarm rate of one operation's statistical checks.  Each
# check gets the Bonferroni share, so correct code fails an operation with
# probability below this whatever the seed.
FAMILY_ALPHA = 1e-5


def z_tolerance(n_checks: int) -> float:
    """Two-sided normal quantile for one of ``n_checks`` checks."""
    return float(stats.norm.isf(FAMILY_ALPHA / (2.0 * n_checks)))


def binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


# --- cross-fed drift ---------------------------------------------------------


def corner_hit_probability(s0: float, eps: float) -> float:
    """P(S reaches ``eps``) for ``dS = S dt + √(2S) dW`` from ``s0``."""
    return math.exp(-(s0 - eps))


# --- product of x∂² and x∂² + ∂ -------------------------------------------------


def tau_cdf(t: float, x0: float) -> float:
    """P(τ ≤ t) for the Feller diffusion ``dX = √(2X) dW`` from ``x0``."""
    return math.exp(-x0 / t) if t > 0 else 0.0


def tau_pdf(t: float, x0: float) -> float:
    return x0 / (t * t) * math.exp(-x0 / t) if t > 0 else 0.0


def bessel_cdf(a: float, t: float, y0: float) -> float:
    """P(Y_t ≤ a) for ``dY = dt + √(2Y) dW`` from ``y0`` (``Y = Z/2``, Z BESQ²)."""
    if a <= 0:
        return 0.0
    return float(stats.ncx2.cdf(2.0 * a / t, 2, 2.0 * y0 / t))


def _quad(f, lo: float, hi: float) -> float:
    val, _ = integrate.quad(f, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=200)
    return val


def hit_mass(x0: float, y0: float, t_lo: float, t_hi: float, a: float, b: float) -> float:
    """P(τ ∈ (t_lo, t_hi], Y_τ ∈ (a, b]) for the independent pair (X, Y)."""
    t_lo = max(t_lo, 0.0)
    if t_hi <= t_lo:
        return 0.0
    return _quad(
        lambda s: tau_pdf(s, x0) * (bessel_cdf(b, s, y0) - bessel_cdf(a, s, y0)),
        t_lo,
        t_hi,
    )


def mean_occupation(x0: float, y0: float, T: float, eps: float) -> float:
    """E ∫₀^{T∧τ} 1{Y_s < ε} ds = ∫₀ᵀ P(τ > s) P(Y_s < ε) ds."""
    return _quad(lambda s: (1.0 - math.exp(-x0 / s)) * bessel_cdf(eps, s, y0), 1e-12, T)


# --- Wright–Fisher, N = 1 -----------------------------------------------------


def implicit_euler_decay(rate: float, T: float, n_steps: int) -> float:
    """``(1 + rate·dt)^{−n}``: the implicit-Euler image of ``e^{−rate·T}``."""
    return (1.0 + rate * T / n_steps) ** (-n_steps)
