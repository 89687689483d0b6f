"""The mpmath oracles must not depend on a term count chosen by the caller."""

from mpmath import mp, mpf

from oracles import mp_ln_gamma_q, mp_psi_q


def test_psi_q_oracle_converges_on_its_own():
    # Ratio q^x = 0.9974: a caller's 1-term floor must not truncate the sum.
    x, q = mpf("0.05"), mpf("0.95")
    reference = -mp.log(1 - q) + mp.log(q) * mp.fsum(q ** (n * x) / (1 - q**n) for n in range(1, 60001))
    assert abs(mp_psi_q("0.05", "0.95", terms=1) - reference) <= mpf("1e-30") * abs(reference)


def test_ln_gamma_q_oracle_converges_on_its_own():
    # Ratio q = 0.95: a caller's 1-term floor must not truncate the product.
    x, q = mpf("0.05"), mpf("0.95")
    reference = (1 - x) * mp.log(1 - q) + mp.fsum(
        mp.log(1 - q ** (n + 1)) - mp.log(1 - q ** (n + x)) for n in range(3000)
    )
    assert abs(mp_ln_gamma_q("0.05", "0.95", terms=1) - reference) <= mpf("1e-30") * abs(reference)
