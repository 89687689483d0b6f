"""The value types are immutable NamedTuple records whose domain rules hold
on every construction path: the constructor, ``_replace``, ``_make``,
copies and pickles."""

import copy
import math
import pickle

import pytest

from qgamma.bounds import INEQUALITIES, BoundPair, DomainSpec, thm_mvt_bounds
from qgamma.errors import DomainError
from qgamma.propcheck import CertificateReport, SampleBatch, run_check, sample
from qgamma.qcore import EvalConfig, Evaluation, QParam
from qgamma.qspecial import psi_q, psi_q_root

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
