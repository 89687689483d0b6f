"""The value types are immutable NamedTuple records whose domain rules hold
on every construction path: the constructor, ``_replace``, ``_make``,
copies and pickles."""

import copy
import math
import pickle
from functools import partial

import pytest

from qgamma import bounds
from qgamma.bounds import INEQUALITIES, INEQUALITY_IDS, BoundPair, DomainSpec, thm_mvt_bounds
from qgamma.classical import ln_gamma_classical, psi_classical
from qgamma.errors import DomainError
from qgamma.propcheck import CertificateReport, SampleBatch, run_check, sample
from qgamma.qcore import EvalConfig, Evaluation, QParam, sum_geometric_decay
from qgamma.qspecial import euler_gamma_q, gamma_q, ln_gamma_q, psi_q, psi_q_m, psi_q_root

RECORDS = {
    "QParam": lambda: QParam(0.5),
    "EvalConfig": lambda: EvalConfig(5),
    "Evaluation": lambda: psi_q(2.0, QParam(0.5)),
    "PsiRoot": lambda: psi_q_root(QParam(0.5)),
    "BoundPair": lambda: thm_mvt_bounds(3.0, 2.0, QParam(0.5)),
    "DomainSpec": lambda: DomainSpec((1.0, 2.0), (1.0, 2.0), (0.1, 0.9), (0.0, 1.0), "mu_greater_than_lambda"),
    "Inequality": lambda: INEQUALITIES["thm_alpha"],
    "SampleBatch": lambda: sample(INEQUALITIES["thm_mvt"].domain, 3, 4),
    "CertificateReport": lambda: run_check("thm_mvt", seed=3, samples=4),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]()


def test_fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_no_new_attribute(record):
    with pytest.raises(AttributeError):
        record.extra = 1.0


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_are_equal(record, clone):
    twin = clone(record)
    assert type(twin) is type(record)
    assert twin == record


def test_records_are_tuples_of_their_fields():
    q = QParam(0.5)
    assert q == (0.5, math.log(0.5))
    value, error_estimate, terms_used = ev = psi_q(2.0, q)
    assert (value, error_estimate, terms_used) == (ev.value, ev[1], ev.terms_used)
    assert Evaluation(*ev) == ev
    assert BoundPair._fields[-3:] == ("log_lower", "log_ratio", "log_upper")
    assert CertificateReport._fields[0] == "inequality_id"
    assert SampleBatch._fields == ("seed", "count", "points")


def test_replace_checks_the_domain():
    with pytest.raises(DomainError):
        QParam(0.5)._replace(q=2.0)
    with pytest.raises(DomainError):
        EvalConfig(5)._replace(max_terms=0)
    with pytest.raises(DomainError):
        DomainSpec((1.0, 2.0))._replace(constraint="alpha_at_least_root")
    assert QParam(0.5)._replace(q=0.25) == QParam(0.25)
    assert EvalConfig(5)._replace(max_terms=7) == EvalConfig(7)


def test_ln_q_follows_q():
    with pytest.raises(TypeError):
        QParam(0.5)._replace(ln_q=0.0)
    with pytest.raises(DomainError):
        QParam._make((0.5, 0.0))
    assert QParam._make(QParam(0.3)) == QParam(0.3)


def test_make_checks_the_domain():
    with pytest.raises(DomainError):
        EvalConfig._make([0])
    with pytest.raises(DomainError):
        DomainSpec._make([(2.0, 1.0), None, None, None, "none"])
    with pytest.raises(DomainError):
        QParam._make([1.0, 0.0])
    spec = DomainSpec((1.0, 2.0))
    assert DomainSpec._make(spec) == spec


# Hot paths build these records without their constructors; each output
# must still be a record of its class and equal to the constructor's.
_Q = QParam(0.5)
BOUNDS_ARGS = {
    "thm_main": (3.0, 2.0, _Q),
    "cor_half_shift": (2.0, _Q),
    "thm_alpha": (3.0, 2.0, 3.0, _Q),
    "thm_mvt": (3.0, 2.0, _Q),
    "cor_mu_lambda": (2.0, 1.5, 0.5, _Q),
    "cor_one_half": (2.0, _Q),
    "remark_rearranged": (2.0, _Q),
    "keckic_vasic": (3.0, 2.0),
    "zhang_xu_situ": (3.0, 2.0),
}
EVALUATIONS = {
    "sum_geometric_decay": lambda: sum_geometric_decay(lambda n: 0.5**n, 0.5, 1),
    "sum_geometric_decay_ratio_from": lambda: sum_geometric_decay(lambda n: 0.5**n, 0.5, 1, EvalConfig(), 8),
    "psi_q": lambda: psi_q(2.0, _Q),
    "psi_q_m": lambda: psi_q_m(2, 2.0, _Q),
    "psi_q_m_ratio_from": lambda: psi_q_m(2100, 1000.0, _Q),
    "ln_gamma_q": lambda: ln_gamma_q(2.5, _Q, y=1.5),
    "gamma_q": lambda: gamma_q(2.5, _Q),
    "euler_gamma_q": lambda: euler_gamma_q(_Q),
    "ln_gamma_classical": lambda: ln_gamma_classical(2.5),
    "psi_classical": lambda: psi_classical(2.5),
}
HOT_PATH_OUTPUTS = {
    **{name: (Evaluation, make) for name, make in EVALUATIONS.items()},
    **{
        f"{ineq}_bounds": (BoundPair, partial(getattr(bounds, f"{ineq}_bounds"), *args))
        for ineq, args in BOUNDS_ARGS.items()
    },
}


def test_every_bounds_op_is_covered():
    assert set(BOUNDS_ARGS) == set(INEQUALITY_IDS)


@pytest.mark.parametrize("name", sorted(HOT_PATH_OUTPUTS))
def test_hot_path_records_are_real_records(name):
    cls, make = HOT_PATH_OUTPUTS[name]
    record = make()
    assert type(record) is cls
    assert len(record) == len(cls._fields)
    assert cls(*record) == record
    if cls is Evaluation:
        assert type(record.terms_used) is int
