"""Checks run once per immutable value.

``classify`` and the Choi spectrum it shares with ``extract_kraus`` are
memoised on the map per tolerance, and ``summed`` returns one map per
(instrument, event).  Eigensolves are counted by wrapping
``hermitian_eig`` in ``matcore``, ``superop`` and ``states``, where the
checks call it.
"""

import sys
import threading

import numpy as np
import pytest

import retroops as r
from retroops import matcore, states, superop

from helpers import (
    luders_resolution,
    rand_operation,
    rand_resolution,
    rand_unitary,
    rng,
    x_instrument,
    z_instrument,
)


@pytest.fixture
def eig_calls(monkeypatch):
    """A list that grows by one entry per Hermitian eigendecomposition."""
    calls = []
    real = matcore.hermitian_eig

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(matcore, "hermitian_eig", counted)
    monkeypatch.setattr(superop, "hermitian_eig", counted)
    monkeypatch.setattr(states, "hermitian_eig", counted)
    return calls


def test_probabilities_on_classified_maps_make_no_eigensolve(eig_calls):
    gen = rng(301)
    for d in (2, 3):
        a, b = rand_operation(gen, d), rand_operation(gen, d)
        r.classify(a)
        r.classify(b)
        assert eig_calls
        eig_calls.clear()
        r.p_pred(a, b)
        r.p_retro(a, b)
        r.p_prior(a)
        assert len(eig_calls) == 0


def test_bayes_on_classified_maps_makes_no_eigensolve(eig_calls):
    # The resolution's trivial sum is checked on the identity's images, not by
    # classifying a fresh sum map.
    gen = rng(309)
    for d in (2, 3):
        for res in (luders_resolution(gen, d), rand_resolution(gen, d, 3)):
            b = rand_operation(gen, d)
            for a in res + [b]:
                r.classify(a)
            eig_calls.clear()
            r.bayes_retrodict(res, b, 0)
            r.bayes_predict(res, b, len(res) - 1)
            assert len(eig_calls) == 0


def test_first_check_eigensolves_once_per_map(eig_calls):
    a, b = rand_operation(rng(302), 3), rand_operation(rng(303), 3)
    r.p_pred(a, b)
    first = len(eig_calls)
    assert first > 0
    r.p_pred(a, b)
    r.p_retro(b, a)
    assert len(eig_calls) == first


def test_effect_tests_both_bounds_on_one_spectrum(eig_calls):
    for m, ok in ((np.eye(3) * 0.3, True), (np.diag([0.0, 1.0]), True), (np.eye(2) * 1.5, False), (-np.eye(2), False)):
        eig_calls.clear()
        if ok:
            r.Effect(m)
        else:
            with pytest.raises(r.InvariantViolation):
                r.Effect(m)
        assert len(eig_calls) == 1


def test_extract_kraus_reuses_the_choi_spectrum_of_classify(eig_calls):
    a = rand_operation(rng(304), 3, k=2)
    r.classify(a)
    eig_calls.clear()
    ks = r.extract_kraus(a)
    assert len(eig_calls) == 0
    assert np.abs(r.from_kraus(ks.ops, dim=3).mat - a.mat).max() < 1e-9


def _slightly_super_unital():
    """A unitary channel scaled by 1 + 1e-8: an operation at tol=1e-6, not at 1e-12."""
    return r.scale(r.unitary(rand_unitary(rng(305), 2)), 1.0 + 1e-8)


@pytest.mark.parametrize("order", [(1e-6, 1e-12), (1e-12, 1e-6)])
def test_classification_is_kept_per_tolerance(order):
    a = _slightly_super_unital()
    got = {tol: r.classify(a, tol) for tol in order}
    assert got[1e-6].operation
    assert not got[1e-12].operation
    for tol in order:
        assert r.classify(_slightly_super_unital(), tol) == got[tol]
        assert r.classify(a, tol) is got[tol]


def test_summed_returns_one_map_per_event(eig_calls):
    z, x = z_instrument(), x_instrument()
    assert r.summed(z, ["+"]) is r.summed(z, ("+",))
    assert r.summed(z, ["+", "-"]) is r.summed(z, z.outcomes)
    assert r.summed(z, []) is r.summed(z, [])
    assert r.summed(z, ["+"]) is not r.summed(z, ["-"])
    assert r.summed(x, ["+"]) is not r.summed(z, ["+"])
    first = (r.p_cond_retro(z, x, ["+"], ["+"]), r.p_cond_pred(z, x, ["+", "-"], ["-"]))
    eig_calls.clear()
    r.p_inst(x, ["+"])
    r.p_inst_pred(x, ["+"], r.summed(z, ["+"]))
    again = (r.p_cond_retro(z, x, ["+"], ["+"]), r.p_cond_pred(z, x, ["+", "-"], ["-"]))
    assert len(eig_calls) == 0
    assert again == first


def test_map_and_cached_spectrum_are_read_only():
    a = rand_operation(rng(306), 2)
    cls = r.classify(a)
    assert cls.operation
    eig = superop._choi_eig(a, matcore.DEFAULT_TOL)
    assert eig is superop._choi_eig(a, matcore.DEFAULT_TOL)
    for arr in (a.mat, eig.eigenvalues, eig.eigenvectors):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert r.classify(a) is cls



def test_concurrent_first_calls_agree():
    # Threads racing on a map's first classify may each compute it; every
    # caller still sees an equal record, and later calls return the stored one.
    gen = rng(308)
    maps = [rand_operation(gen, 2) for _ in range(12)]
    want = [r.classify(r.from_tensor(a.mat)) for a in maps]
    got = [[] for _ in range(4)]

    def work(out):
        out.extend(r.classify(a) for a in maps)

    threads = [threading.Thread(target=work, args=(out,)) for out in got]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(out == want for out in got)
    assert [r.classify(a) for a in maps] == want
