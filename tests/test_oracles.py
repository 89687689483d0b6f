"""The mpmath oracles must not depend on a term count chosen by the caller."""

from mpmath import mp, mpf

from oracles import mp_ln_gamma_q, mp_psi_q, mp_psi_q_abel_plana, mp_q_factorial


def test_psi_q_oracle_converges_on_its_own():
    # Ratio q^x = 0.9974: a caller's 1-term floor must not truncate the sum.
    x, q = mpf("0.05"), mpf("0.95")
    reference = -mp.log(1 - q) + mp.log(q) * mp.fsum(q ** (n * x) / (1 - q**n) for n in range(1, 60001))
    assert abs(mp_psi_q("0.05", "0.95", terms=1) - reference) <= mpf("1e-30") * abs(reference)


def test_abel_plana_oracle_is_the_n_form():
    # Two independent routes to psi_q, where the n-form is cheap: near the
    # pole, at the n-series/q-Stirling split of the library, and far out.
    for x, q in (("0.05", "0.9"), ("1.5", "0.5"), ("0.3", "0.95"), ("10", "0.6126"), ("30", "0.99")):
        reference = mp_psi_q(x, q, terms=1)
        assert abs(mp_psi_q_abel_plana(x, q, dps=30) - reference) <= mpf("1e-27") * max(1, abs(reference)), (x, q)


def test_abel_plana_oracle_tends_to_the_digamma():
    # Binet's formula at q = 1: within about (1-q) of the digamma.
    for x in ("0.05", "1", "7.5"):
        assert abs(mp_psi_q_abel_plana(x, 1 - mpf("1e-15")) - mp.digamma(mpf(x))) <= mpf("1e-13"), x


def test_ln_gamma_q_oracle_converges_on_its_own():
    # Ratio q = 0.95: a caller's 1-term floor must not truncate the product.
    x, q = mpf("0.05"), mpf("0.95")
    reference = (1 - x) * mp.log(1 - q) + mp.fsum(
        mp.log(1 - q ** (n + 1)) - mp.log(1 - q ** (n + x)) for n in range(3000)
    )
    assert abs(mp_ln_gamma_q("0.05", "0.95", terms=1) - reference) <= mpf("1e-30") * abs(reference)


def test_q_factorial_oracle_known_values():
    # [2]_q! = 1 + q and [3]_q! = (1 + q)(1 + q + q^2); the empty product is 1.
    q = mpf("0.5")
    assert mp_q_factorial(0, "0.9") == 1
    assert abs(mp_q_factorial(2, "0.5") - (1 + q)) <= mpf("1e-38")
    assert abs(mp_q_factorial(3, "0.5") - (1 + q) * (1 + q + q**2)) <= mpf("1e-38")


def test_q_factorial_oracle_is_the_q_gamma_product_at_integers():
    # Gamma_q(n+1) from the independent log-product oracle.
    for n in (1, 5, 20):
        assert abs(mp_q_factorial(n, "0.7") / mp.e ** mp_ln_gamma_q(n + 1, "0.7") - 1) <= mpf("1e-30")
