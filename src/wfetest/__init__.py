"""Scaling-exponent estimation and shuffle tests for financial series.

The pipeline: load daily prices, take log returns, build the profile
(cumulative sum of demeaned returns), compute a fluctuation function
F(s) by detrended fluctuation analysis or a detrending moving average,
fit ln F against ln s for the exponent H, then test the no-memory null
by comparing H against the exponents of shuffled copies of the returns.
Rolling windows repeat the whole procedure through time, and exact
fractional Gaussian noise provides the validation oracle.
"""

__version__ = "0.1.0"
