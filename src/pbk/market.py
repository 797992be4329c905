"""Market parameters and the constants derived from them.

The similarity transform that symmetrizes the pricing generator is a pure
exponential tilt e^{-beta x} whose rate is fixed by the market:
beta = 1/2 - r/sigma^2. The tilt trades the first-derivative drift term for
the constant gamma = (sigma^2/2 + r)^2 / (2 sigma^2). beta vanishes exactly
when sigma^2 = 2r, in which case the two eigenfamilies collapse to a single
orthonormal one.
"""

from __future__ import annotations

from dataclasses import dataclass

# sigma**2 = 2r computed in floats leaves beta at rounding-error size, not 0
BETA_DEGENERATE_EPS = 1e-12


def beta_is_degenerate(beta: float) -> bool:
    """True in the orthonormal regime beta = 0, up to float rounding."""
    return abs(beta) <= BETA_DEGENERATE_EPS


@dataclass(frozen=True)
class MarketParams:
    """Volatility (per sqrt-year) and risk-free rate (per year)."""

    sigma: float
    r: float

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.r < 0.0:
            raise ValueError(f"r must be nonnegative, got {self.r}")

    @property
    def beta(self) -> float:
        """Tilt rate of the symmetrizing map e^{-beta x}."""
        return 0.5 - self.r / self.sigma**2

    @property
    def gamma(self) -> float:
        """Constant energy shift produced by the tilt."""
        return (self.sigma**2 / 2.0 + self.r) ** 2 / (2.0 * self.sigma**2)


class MarketView:
    """Base of the model params: sigma, r, beta and gamma read through from
    the ``market`` field."""

    sigma = property(lambda self: self.market.sigma)
    r = property(lambda self: self.market.r)
    beta = property(lambda self: self.market.beta)
    gamma = property(lambda self: self.market.gamma)
