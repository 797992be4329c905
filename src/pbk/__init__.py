"""Biorthogonal ladder structures of the Black-Scholes generator.

Two concrete models (a shifted-harmonic whole-line model and a double
knock-out barrier model), a generic verification harness for their ladder
algebra, closed-form and spectral pricing kernels, and option pricing with
independent Monte Carlo and Black-Scholes oracles.

Names are imported from their modules (pbk.kernels, pbk.pricing, ...); the
package root re-exports nothing.
"""

__version__ = "0.1.0"
