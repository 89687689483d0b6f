"""Project-wide certification constants.

The comparison slacks, the minimum pair gap, the double-range limit and the
Bernoulli numbers of the asymptotic series live here so that every module
certifies against the same numbers.
"""

# ln of the largest finite double (709.7827...), rounded down: the log-space
# range test of psi_q^(m)'s summands.  Exponentials decide by math.exp's own
# OverflowError instead, so a log up to 709.7827 still gives a finite value.
MAX_EXP = 709.78

# B_2, B_4, ..., B_18 (DLMF 24.2.1), as plain floats: the coefficients of
# the classical Stirling and digamma series, of the q-Stirling corrections
# and of the two Li_2 series behind ln Gamma_q.
BERNOULLI = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798,
)

# Log-space slack when checking lower <= ratio <= upper at a sample point.
# Equivalent to a relative slack of ~1e-9 on the exponentiated values.
CERT_SLACK_LOG = 1e-9

# Slack for the geometric-convexity midpoint check, log space.
CONVEXITY_SLACK_LOG = 1e-9

# Slack for nondecrease of x * (ln f)'(x) along a grid.
SLOPE_SLACK = 1e-10

# Minimum spacing enforced between paired samples (x, y) or (mu, lambda)
# under a strict ordering constraint; below this the margins drown in noise.
MIN_PAIR_GAP = 1e-6
