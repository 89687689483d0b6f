"""Extended-precision brute-force oracles used to pin expected test values.

Everything here is deliberately independent of the package under test: plain
partial sums and log-products evaluated with mpmath at 40 digits.  The q-sums
and q-log-products take the caller's term count as a floor and go on until
their own rigorous tail bound is negligible, so that no caller has to know
how many terms the library needed.  The classical ln Gamma and digamma
are mpmath's own ``loggamma`` and ``digamma``.  Tests freeze values
produced by these functions (or call them live for spot checks); the library
is never used to generate its own expectations.
"""

from mpmath import mp, mpf

mp.dps = 40


# The oracles sum until a rigorous tail bound falls below this fraction of
# the partial sum, however few terms the caller asked for.
_TAIL_REL = mpf("1e-32")
_MAX_TERMS = 2 * 10**6


def mp_ln_gamma_q(x, q, terms=3000):
    """Log of the q-Gamma product: (1-q)^(1-x) * prod_n (1-q^(n+1))/(1-q^(n+x)),
    at least ``terms`` factors, continued until the tail of the log-sum is
    below 1e-32 of it.

    Log-factor n has size ~ q^n |q - q^x| and |t(n+1)| <= q |t(n)| for every
    n (expand both logs in powers of q^n), so after factor n the tail is at
    most |t(n)| q / (1 - q).  Factors are multiplied in blocks of 32, and the
    bound is tested after each block.
    """
    x = mpf(x)
    q = mpf(q)
    q_n = mpf(1)
    qx_n = q**x
    s = mpf(0)
    block = mpf(1)
    for n in range(1, _MAX_TERMS + 1):
        q_n *= q
        factor = (1 - q_n) / (1 - qx_n)
        qx_n *= q
        block *= factor
        if n % 32 == 0:
            s += mp.log(block)
            block = mpf(1)
            if n >= terms and abs(mp.log(factor)) * q / (1 - q) <= _TAIL_REL * abs(s):
                return (1 - x) * mp.log(1 - q) + s
    raise RuntimeError(f"log-product oracle did not converge within {_MAX_TERMS} terms at x={x}, q={q}")


def mp_ln_gamma_q_shift(y, m, q):
    """ln Gamma_q(y+m) - ln Gamma_q(y) = sum_{k<m} ln [y+k]_q for an integer
    m >= 0, [t]_q = (1-q^t)/(1-q) (the functional equation); 1 - q^t is
    -expm1(t ln q), which keeps its digits as t -> 0 or q -> 1.  A finite
    sum, so it holds where the product needs too many factors.
    """
    y = mpf(y)
    q = mpf(q)
    ln_q = mp.log(q)
    return mp.fsum(mp.log(-mp.expm1((y + k) * ln_q) / (1 - q)) for k in range(m))


def mp_gamma_q(x, q, terms=3000):
    return mp.e ** mp_ln_gamma_q(x, q, terms)


def _mp_polygamma_sum(m, x, q, terms):
    """sum_{n>=1} n^m q^(n x)/(1-q^n), raw n-form, at least ``terms`` terms.

    Term ratio t(n+1)/t(n) <= r_n = (1+1/n)^m q^x, which falls with n, so
    after term n the tail is at most t(n) r_n / (1 - r_n) once r_n < 1.  The
    bound is tested every 32 terms, which only ever sums a few more.
    """
    x = mpf(x)
    q = mpf(q)
    qx = q**x
    qx_n = mpf(1)
    q_n = mpf(1)
    s = mpf(0)
    for n in range(1, _MAX_TERMS + 1):
        qx_n *= qx
        q_n *= q
        t = n**m * qx_n / (1 - q_n)
        s += t
        if n >= terms and n % 32 == 0:
            r = (1 + mpf(1) / n) ** m * qx
            if r < 1 and t * r / (1 - r) <= _TAIL_REL * s:
                return s
    raise RuntimeError(f"n-form oracle did not converge within {_MAX_TERMS} terms at x={x}, q={q}")


def mp_psi_q(x, q, terms=3000):
    """-ln(1-q) + ln(q) * sum_{n>=1} q^(n x)/(1-q^n), raw partial sum of at
    least ``terms`` terms, continued until its tail is below 1e-32 of it."""
    q = mpf(q)
    return -mp.log(1 - q) + mp.log(q) * _mp_polygamma_sum(0, x, q, terms)


def mp_psi_q_m(m, x, q, terms=3000):
    """(ln q)^(m+1) * sum_{n>=1} n^m q^(n x)/(1-q^n), raw partial sum of at
    least ``terms`` terms, continued until its tail is below 1e-32 of it."""
    q = mpf(q)
    return mp.log(q) ** (m + 1) * _mp_polygamma_sum(m, x, q, terms)


def mp_psi_q_abel_plana(x, q, dps=20):
    """psi_q(x) by the Abel-Plana formula, for every q < 1, near q = 1 too,
    where the n-form needs about 70 / (s x) terms, s = -ln q.

    psi_q(x) = -ln(1-q) - sum_{k>=0} f(k), f(z) = s / (e^(s(x+z)) - 1),
    analytic for Re z > -x, and sum_{k>=0} f(k) = int_0^inf f + f(0)/2 +
    i int_0^inf (f(it) - f(-it)) / (e^(2 pi t) - 1) dt (Abel-Plana), with
    int_0^inf f = -ln(1-q^x) and f(-it) = conj f(it), so that
        psi_q(x) = ln((1-q^x)/(1-q)) - f(0)/2
                   - 2 int_0^inf s a sin(st) / (|a e^(ist) - 1|^2 (e^(2 pi t) - 1)) dt,
    a = q^(-x), |a e^(ist) - 1|^2 = (a-1)^2 + 4a sin^2(st/2).  As q -> 1
    this tends to Binet's formula for the digamma.  The integral is mpmath's
    quadrature at ``dps`` digits, near 1e-20 of the value at the default.
    """
    with mp.workdps(dps):
        x = mpf(x)
        q = mpf(q)
        s = -mp.log(q)
        am1 = mp.expm1(s * x)
        a = am1 + 1

        def weight(t):
            return s * a * mp.sin(s * t) / ((am1 * am1 + 4 * a * mp.sin(s * t / 2) ** 2) * mp.expm1(2 * mp.pi * t))

        return mp.log(mp.expm1(-s * x) / mp.expm1(-s)) - s / (2 * am1) - 2 * mp.quad(weight, [0, 1, mp.inf])


def mp_q_bracket(x, q):
    return (1 - mpf(q) ** mpf(x)) / (1 - mpf(q))


def mp_q_factorial(n, q):
    """[n]_q! = prod_{k=1..n} (1-q^k)/(1-q), the empty product 1: Gamma_q(n+1)."""
    q = mpf(q)
    return mp.fprod((1 - q**k) / (1 - q) for k in range(1, n + 1))


def mp_psi_q_root(q, lo=0.5, hi=8.0, iters=200, terms=3000):
    """Bisection for the positive zero of psi_q on the raw partial sums."""
    lo = mpf(lo)
    hi = mpf(hi)
    flo = mp_psi_q(lo, q, terms)
    fhi = mp_psi_q(hi, q, terms)
    assert flo < 0 < fhi, (flo, fhi)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if mp_psi_q(mid, q, terms) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def mp_ratio_gamma_q(x, y, q, terms=3000):
    return mp.e ** (mp_ln_gamma_q(x, q, terms) - mp_ln_gamma_q(y, q, terms))


def mp_psi_classical(x):
    return mp.digamma(mpf(x))


def mp_ln_gamma_classical(x):
    return mp.loggamma(mpf(x))
