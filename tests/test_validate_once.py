"""Checks run once per immutable value.

A value derived exactly from checked maps (a rearrangement, a Bayes joint,
a resolution sum) is not checked again, and gives the bits of the checked
formula.  ``classify``, the CP verdict it shares with ``is_cp`` and
``extract_kraus``, and the Kraus factor of ``extract_kraus`` (which
``classify`` does not build) are memoised on the map per tolerance,
``event_weight`` is memoised per map, and ``summed`` returns one map per
(instrument, event).  An inferred ``DensityMatrix`` is kept per (map,
direction, tolerance), the effect pair of ``effects_of`` per (map,
tolerance), and a failing one is not kept.  The trivial-sum
check keeps the deviation pair of one family on its first member, so Bayes
over an instrument's members in outcome order forms no new sum; the slot
is one per map, holds the other members weakly and forms no cycle, and the
comparison with ``10 * tol`` runs on every call.  The joint weight of an
ordered pair ``(a, b)`` is computed once, equal to the bit to the checked
composition, and kept on ``a`` in one weak-keyed dictionary per map, whose
entry for ``b`` goes when ``b`` dies; ``(b, a)`` is another entry,
``adjoint`` inherits none, a non-map partner raises on every call and
leaves none, and no memo reaches its map.  A map keeps the joints of at
most ``_MAX_JOINTS`` live partners, and an all-pairs sweep over 400 live
maps grows the process's peak memory by a few MB.  ``adjoint`` inherits
the CP verdict with the classification, so a time reversal's Kraus factor
makes no eigensolve.
A map built by ``from_kraus`` certifies its CP verdict from its kept Gram
bound, so its ``classify`` makes one eigensolve fewer than a ``from_tensor``
copy of the same matrix.
The exact forward loop of the simulator takes each step's summed map once
per call, and the sampler builds each instrument's component stack once.  Eigensolves,
sums and joints are counted by wrapping ``hermitian_eig``, ``_effect_pair``
and ``_joint_weight`` in every module of the package that binds them.
"""

import gc
import os
import subprocess
import sys
import textwrap
import threading
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import retroops as r
from retroops import cli, matcore, sim, superop

from helpers import (
    PZP,
    luders_resolution,
    rand_cp,
    rand_noncp,
    rand_operation,
    rand_resolution,
    rand_unitary,
    rng,
    unsharp_instrument,
    x_instrument,
    z_instrument,
)


def _count_calls(monkeypatch, module, name: str) -> list:
    """A list that grows by one entry (the first argument) per call of
    ``module.name``, wrapped in every module of the package that binds it."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0] if args else None)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "retroops" and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture
def eig_calls(monkeypatch):
    """A list that grows by one entry per Hermitian eigendecomposition."""
    return _count_calls(monkeypatch, matcore, "hermitian_eig")


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


def test_effect_tests_both_bounds_on_one_spectrum(eig_calls, monkeypatch):
    # The one eigensolve is also the effect's one Hermitian check.
    hermitian_checks = _count_calls(monkeypatch, matcore, "_require_hermitian")
    for m, ok in ((np.eye(3) * 0.3, True), (np.diag([0.0, 1.0]), True), (np.eye(2) * 1.5, False), (-np.eye(2), False)):
        eig_calls.clear()
        hermitian_checks.clear()
        if ok:
            r.Effect(m)
        else:
            with pytest.raises(r.InvariantViolation):
                r.Effect(m)
        assert len(eig_calls) == 1
        assert len(hermitian_checks) == 1
    with pytest.raises(r.NotHermitian, match="^matrix deviates from Hermitian"):
        r.Effect([[0.5, 0.1], [0.0, 0.5]])


def test_state_command_eigensolves_the_inferred_state_once(eig_calls):
    # The density matrix keeps the spectrum of its positivity check, and
    # the state command reports it instead of eigensolving again.
    qubit = str(Path(__file__).parent / "fixtures" / "qubit.json")
    args = cli._command_parser().parse_args(["--scenario", qubit, "state", "pz+", "--prior"])
    scn = cli.load_scenario(qubit, matcore.DEFAULT_TOL)
    r.classify(scn.operation("pz+"))
    eig_calls.clear()
    report = cli.cmd_state(scn, args, matcore.DEFAULT_TOL)
    assert len(eig_calls) == 1
    assert report["eigenvalues"] == [0.0, 1.0]
    eig_calls.clear()
    rho = r.DensityMatrix(PZP)
    assert len(eig_calls) == 1
    assert rho.spectrum.tolist() == [0.0, 1.0]
    assert len(eig_calls) == 1


def test_time_reverse_seeds_the_adjoints_classification(eig_calls):
    # adjoint copies each classify record of its argument with the two
    # Loewner flags swapped: classifying the adjoint, reversing and inferring
    # the input state then make no Choi eigensolve, and the inherited record
    # equals the one an unseeded copy of the adjoint computes.
    gen = rng(310)
    kinds = set()
    for d in (2, 3, 4):
        operations = [rand_operation(gen, d) for _ in range(3)] + [rand_operation(gen, d, k=1)]
        for a in operations + [rand_cp(gen, d), rand_noncp(gen, d)]:
            for tol in (1e-12, 1e-9, 1e-6):
                cls = r.classify(a, tol)
                kinds.add((cls.cp, cls.operation))
                eig_calls.clear()
                inherited = r.classify(r.adjoint(a), tol)
                if cls.operation:
                    assert r.classify(r.time_reverse(a, tol), tol) == inherited
                    r.state_prior(a, tol)
                    assert len(eig_calls) == 1  # the inferred state's own spectrum
                else:
                    assert len(eig_calls) == 0
                assert inherited == r.classify(r.Superoperator(a.dim, a.mat.conj().T), tol)
                assert (inherited.sub_unital, inherited.sub_tracial) == (cls.sub_tracial, cls.sub_unital)
    assert kinds == {(True, True), (True, False), (False, False)}


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
    ks = r.extract_kraus(a)
    assert ks is r.extract_kraus(a)
    for arr in (a.mat,) + ks.ops:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert r.classify(a) is cls



def test_concurrent_first_calls_agree():
    # Threads racing on a map's first classify may each compute it; every
    # caller still sees an equal record, and later calls return the stored one.
    # Threads racing on one map's joints see the checked formula's bits, and
    # each can overshoot the cap by at most the one entry it was adding.
    gen = rng(308)
    maps = [rand_operation(gen, 2) for _ in range(12)]
    want = [r.classify(r.from_tensor(a.mat)) for a in maps]
    a, partners = rand_operation(gen, 2), [rand_operation(gen, 2) for _ in range(superop._MAX_JOINTS + 16)]
    want_joints = [_ref_cond(a, b, b) for b in partners]
    got = [[] for _ in range(4)]

    def work(out):
        out.extend(r.classify(a) for a in maps)
        out.append([r.p_pred(a, b) for b in partners])

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
    assert all(out == [*want, want_joints] for out in got)
    assert [r.classify(a) for a in maps] == want
    assert superop._MAX_JOINTS <= len(_joints(a)) <= superop._MAX_JOINTS + len(threads) - 1


def test_is_cp_after_classify_makes_no_eigensolve(eig_calls):
    gen = rng(311)
    for a, cp in ((rand_operation(gen, 3, k=2), True), (rand_noncp(gen, 3), False)):
        r.classify(a)
        eig_calls.clear()
        assert r.is_cp(a) is cp
        assert len(eig_calls) == 0


def test_extract_kraus_after_is_cp_makes_no_eigensolve(eig_calls):
    # A Kraus-built map's CP verdict is certified by its Gram bound, with no
    # eigensolve; a from_tensor copy of the same matrix eigensolves its Choi
    # matrix once.  Neither factor eigensolves after is_cp.
    a = rand_cp(rng(312), 3)
    for m, solves in ((a, 0), (r.from_tensor(a.mat), 1)):
        eig_calls.clear()
        assert r.is_cp(m)
        assert len(eig_calls) == solves
        ks = r.extract_kraus(m)
        assert len(eig_calls) == solves
        assert np.abs(r.from_kraus(ks.ops, dim=3).mat - a.mat).max() < 1e-9


def test_classify_of_a_kraus_built_map_makes_one_eigensolve_fewer(eig_calls):
    # The storage spectrum (the positive flag) and the two Loewner bounds are
    # eigensolved on both maps; only the copy eigensolves its Choi matrix.
    gen = rng(313)
    for d in (2, 3, 5):
        a = r.from_kraus([np.sqrt(0.3) * rand_unitary(gen, d), np.sqrt(0.6) * rand_unitary(gen, d)])
        copy = r.from_tensor(a.mat)
        counts = []
        for m in (a, copy):
            eig_calls.clear()
            r.classify(m)
            counts.append(len(eig_calls))
        assert counts == [3, 4]
        assert r.classify(a) == r.classify(copy)


def _clamped(value: complex) -> float:
    return min(1.0, max(0.0, value.real))


def _ref_cond(first, then, cond):
    """``event_weight(compose(first, then)) / event_weight(cond)`` through a checked composition."""
    return _clamped(r.event_weight(r.compose(first, then)) / r.event_weight(cond).real)


def _ref_bayes(joint, res, b, j):
    terms = [
        _ref_cond(*joint(b, a), a) * r.p_prior(a) if r.event_weight(a).real > matcore.DEFAULT_TOL else 0.0
        for a in res
    ]
    return _clamped(complex(terms[j] / sum(terms)))


def _ref_state(a):
    """``a(I) / tr a(I)`` through a checked map and ``apply``."""
    m = r.apply(a, np.eye(a.dim))
    m = (m + m.conj().T) / 2.0
    return r.DensityMatrix(m / float(np.trace(m).real)).matrix


def test_probabilities_and_states_match_the_checked_formula_to_the_bit():
    gen = rng(313)
    for d in range(2, 9):
        for _ in range(3):
            a, b = rand_operation(gen, d), rand_operation(gen, d)
            assert r.p_pred(a, b) == _ref_cond(a, b, b)
            assert r.p_retro(a, b) == _ref_cond(b, a, b)
            assert np.array_equal(r.state_posterior(a).matrix, _ref_state(a))
            assert np.array_equal(r.state_prior(a).matrix, _ref_state(r.Superoperator(d, a.mat.conj().T)))
        res = rand_resolution(gen, d, 3)
        for j in range(3):
            assert r.bayes_retrodict(res, b, j) == _ref_bayes(lambda x, y: (x, y), res, b, j)
            assert r.bayes_predict(res, b, j) == _ref_bayes(lambda x, y: (y, x), res, b, j)
        i, k = unsharp_instrument(gen, d, 3), unsharp_instrument(gen, d, 2)
        a_ev, b_ev = ["e0", "e2"], ["e1"]
        ia, kb = r.summed(i, a_ev), r.summed(k, b_ev)
        assert r.p_cond_pred(i, k, a_ev, b_ev) == _ref_cond(ia, kb, kb)
        assert r.p_cond_retro(i, k, a_ev, b_ev) == _ref_cond(kb, ia, kb)


def test_mixed_dims_resolution_is_a_dimension_mismatch():
    # The members are operations; only the trivial-sum check sees two dims.
    res = [r.scale(r.unit(2), 0.5), r.scale(r.unit(3), 0.5)]
    for formula in (r.bayes_retrodict, r.bayes_predict):
        with pytest.raises(r.DimensionMismatch, match=r"mixed dims \[2, 3\]"):
            formula(res, r.unit(2), 0)


def _families(a) -> list:
    """The trivial-sum slots kept on the map ``a``."""
    return [key for key in a._memo if key[0] == "family"]


def _states(a) -> list:
    """The inferred states kept on the map ``a``, one key per (direction, tol)."""
    return [key for key in a._memo if key[0] in (("state", 0), ("state", 1))]


def test_inferred_states_check_hermiticity_twice_and_eigensolve_once(monkeypatch, eig_calls):
    # An inferred state reads the identity's image from the map (no adjoint
    # map is built), checks the raw image at tol, and its density matrix
    # checks Hermiticity inside its one eigensolve.  The state is kept on
    # the map, so a repeat call returns the same object with no eigensolve
    # and no Hermitian check.
    adjoints = _count_calls(monkeypatch, superop, "adjoint")
    hermitian = _count_calls(monkeypatch, matcore, "_require_hermitian")
    gen = rng(314)
    for d in range(2, 9):
        a = rand_operation(gen, d)
        inst = unsharp_instrument(gen, d, 3)
        r.classify(a)
        inferred = (
            lambda: r.state_prior(a),
            lambda: r.state_posterior(a),
            lambda: r.state_of_instrument(inst, ["e0", "e2"], "prior"),
            lambda: r.state_of_instrument(inst, ["e2", "e0"], "posterior"),
        )
        for state in inferred:
            first = None
            for eigensolves in (1, 0):
                for counter in (adjoints, eig_calls, hermitian):
                    counter.clear()
                rho = state()
                assert len(adjoints) == 0
                assert len(eig_calls) == eigensolves
                assert len(hermitian) <= 2 * eigensolves
                assert not rho.matrix.flags.writeable and not rho.spectrum.flags.writeable
                assert first is None or first is rho
                first = rho


def test_inferred_states_are_kept_per_tolerance_and_not_inherited_by_the_adjoint(eig_calls):
    gen = rng(316)
    for d in (2, 3, 5):
        a = rand_operation(gen, d)
        for tol in (1e-9, 1e-8):
            r.classify(a, tol)
        rho = r.state_prior(a)
        eig_calls.clear()
        other = r.state_prior(a, 1e-8)
        assert len(eig_calls) == 1
        assert other is not rho and other is r.state_prior(a, 1e-8) and rho is r.state_prior(a)
        assert np.array_equal(other.matrix, rho.matrix)
        rev = r.adjoint(a)
        assert _states(a) == [(('state', 0), 1e-9), (('state', 0), 1e-8)]
        assert not _states(rev)
        eig_calls.clear()
        mirrored = r.state_posterior(rev)
        assert len(eig_calls) == 1
        assert mirrored is not rho and np.array_equal(mirrored.matrix, rho.matrix)


def test_a_failing_state_is_not_kept():
    zero = r.zero(2)
    for _ in range(2):
        with pytest.raises(r.ZeroCondition, match="zero event weight"):
            r.state_prior(zero)
    assert not _states(zero)


def test_bayes_over_an_instruments_members_reads_its_kept_sum(monkeypatch):
    # make_instrument checks the components' sum in outcome order, so Bayes
    # over the members in that order forms no new sum; a permuted order, or
    # another family under the same first member, forms one and still gets
    # the right verdict.
    sums = _count_calls(monkeypatch, superop, "_effect_pair")
    gen = rng(317)
    for d in (2, 3, 4):
        inst = unsharp_instrument(gen, d, 3)
        members = [inst.op(x) for x in inst.outcomes]
        b = rand_operation(gen, d)
        tail = r.summed(inst, ["e1", "e2"])
        for m in (b, tail):
            r.classify(m)
        want = {j: (_ref_bayes(lambda x, y: (x, y), members, b, j), _ref_bayes(lambda x, y: (y, x), members, b, j))
                for j in range(3)}
        sums.clear()
        for j in range(3):
            assert (r.bayes_retrodict(members, b, j), r.bayes_predict(list(members), b, j)) == want[j]
        assert len(sums) == 0
        permuted = [members[1], members[0], members[2]]
        assert r.bayes_retrodict(permuted, b, 1) == _ref_bayes(lambda x, y: (x, y), permuted, b, 1)
        assert len(sums) == 1
        assert r.bayes_predict([members[0], tail], b, 0) == _ref_bayes(lambda x, y: (y, x), [members[0], tail], b, 0)
        assert len(sums) == 2
        with pytest.raises(r.NotResolution):
            r.bayes_retrodict(members[:2], b, 0)
        assert len(sums) == 3
        assert r.bayes_retrodict(members, b, 2) == want[2][0]
        assert len(sums) == 4
        assert r.bayes_retrodict(members, b, 2) == want[2][0]
        assert len(sums) == 4
        assert all(len(_families(m)) <= 1 for m in members + [tail])


def test_a_non_resolution_raises_on_every_call_with_its_numbers(monkeypatch):
    sums = _count_calls(monkeypatch, superop, "_effect_pair")
    half = r.scale(r.unit(3), 0.5)
    b = r.unit(3)
    for m in (half, b):
        for tol in (1e-9, 1e-3):
            r.classify(m, tol)
    sums.clear()
    for tol in (1e-9, 1e-9, 1e-3, 1e-9):
        with pytest.raises(r.NotResolution) as info:
            r.bayes_predict([half], b, 0, tol=tol)
        e = info.value
        assert str(e) == (
            "members must sum to a trivial operation; |sum(I) - I| = 5.000e-01, |adjoint(sum)(I) - I| = 5.000e-01"
        )
        assert (e.dev_in, e.dev_out, e.bound) == (0.5, 0.5, 10 * tol)
    assert len(sums) == 1
    # A deviation the bound at a looser tol allows passes there, and still
    # fails at the default tol, from the same kept pair.
    near = [r.scale(r.unit(2), 1.0 - 1e-6)]
    assert r.bayes_retrodict(near, r.unit(2), 0, tol=1e-6) == 1.0
    with pytest.raises(r.NotResolution) as info:
        r.bayes_retrodict(near, r.unit(2), 0)
    assert info.value.dev_out == info.value.dev_in == pytest.approx(1e-6)


def _reaches(root, target) -> bool:
    """True iff ``target`` is reachable from ``root`` by strong references.

    The walk stops at modules and classes, and enters a function only through
    its closure cells and defaults: their other references lead to module
    state (``__globals__``, ``sys.modules``), which no kept value owns, and
    following them would walk the whole module graph."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if obj is target:
            return True
        if id(obj) in seen or isinstance(obj, (types.ModuleType, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, types.FunctionType):
            todo.extend(obj.__closure__ or ())
            todo.extend(obj.__defaults__ or ())
            todo.extend((obj.__kwdefaults__ or {}).values())
        else:
            todo.extend(gc.get_referents(obj))
    return False


def test_kept_sums_and_states_are_bounded_and_hold_no_cycle():
    gen = rng(318)
    # One slot per map: 1,000 distinct resolutions under unit(d) leave one
    # family on it, and the slot keeps none of their other members alive.
    for d in (2, 3):
        head, b = r.unit(d), rand_operation(gen, d)
        tails = [r.zero(d) for _ in range(1000)]
        for t in tails:
            assert r.bayes_retrodict([head, t], b, 0) == 1.0
        assert len(_families(head)) == 1
        refs = [weakref.ref(t) for t in tails]
        del tails, t
        assert all(ref() is None for ref in refs)
    # A member repeated in its own family, and two families over the same
    # maps in both orders: no map's memo reaches the map.
    half = r.scale(r.unit(2), 0.5)
    other = r.scale(r.unitary(rand_unitary(gen, 2)), 0.5)
    for res in ([half, half], [half, other], [other, half]):
        r.bayes_predict(res, r.unit(2), 1)
    r.state_prior(half)
    for m in (half, other):
        assert len(_families(m)) == 1
        assert not _reaches(m._memo, m)
    # An instrument built from fresh maps, queried and deleted, frees its
    # first component by reference counting alone.
    old = gc.isenabled()
    gc.disable()
    try:
        inst = unsharp_instrument(gen, 3, 3)
        members = [inst.op(x) for x in inst.outcomes]
        r.bayes_retrodict(members, members[1], 0)
        r.bayes_predict(members[::-1], members[0], 2)
        r.state_of_instrument(inst, ["e0", "e1"], "posterior")
        r.state_prior(members[0])
        ref = weakref.ref(members[0])
        del inst, members
        assert ref() is None
    finally:
        if old:
            gc.enable()


def test_event_weights_are_computed_once_per_map(monkeypatch):
    computed = _count_calls(monkeypatch, superop, "_event_weight")
    gen = rng(315)
    for d in range(2, 9):
        computed.clear()
        a, b = rand_operation(gen, d), rand_operation(gen, d)
        res = rand_resolution(gen, d, 3)
        rounds = [
            (r.p_pred(a, b), r.p_retro(a, b), r.p_prior(a), r.bayes_retrodict(res, b, 0), r.bayes_predict(res, b, 2))
            for _ in range(3)
        ]
        assert rounds[0] == rounds[1] == rounds[2]
        assert sorted(map(id, computed)) == sorted(map(id, [a, b] + res))
        for m in [a, b] + res:
            assert r.event_weight(m) == complex(np.einsum("bbaa->", m.tensor))


def test_each_simulator_call_checks_its_steps_and_prior_once(monkeypatch, eig_calls):
    # 40,000 trials are sampled in more than one chunk, and estimate computes
    # two exact values; the steps and the prior are still checked once per
    # call, by the one entry check, and a raw prior is diagonalised once.
    entry = _count_calls(monkeypatch, sim, "_start")
    dims = _count_calls(monkeypatch, superop, "_common_dim")
    steps = [z_instrument(), x_instrument()] * 8
    assert 40_000 > sim._CHUNK
    for prior in (None, PZP):
        calls = (
            lambda: r.estimate(steps, (15, "+"), (0, "+"), 40_000, seed=1, prior=prior),
            lambda: r.exact_sequence_probability(steps, {15: "+", 0: "+"}, prior=prior),
            lambda: r.sample_sequence(steps, prior, rng_seed=1),
        )
        for run in calls:
            for counter in (entry, dims, eig_calls):
                counter.clear()
            run()
            assert len(entry) == 1
            assert [v for v in dims if v is steps] == [steps]
            assert len(eig_calls) == (prior is not None)


def test_each_exact_call_takes_each_steps_summed_map_once(monkeypatch):
    # estimate runs the exact forward loop twice; both runs read the summed
    # maps taken once per call, one per step.
    totals = _count_calls(monkeypatch, sim, "summed")
    steps = [z_instrument(), x_instrument()] * 8
    calls = (
        lambda: r.estimate(steps, (15, "+"), (0, "+"), 100, seed=1),
        lambda: r.exact_sequence_probability(steps, {15: "+", 0: "+"}),
    )
    for run in calls:
        totals.clear()
        run()
        assert totals == steps


def test_effect_pair_is_kept_per_map_and_tolerance(eig_calls):
    # The first call makes the pair's two eigensolves; a repeat call makes
    # none and returns the same read-only matrices.  Another tolerance is
    # another pair.
    gen = rng(317)
    for d in (2, 3, 5):
        a = rand_operation(gen, d)
        r.classify(a)
        eig_calls.clear()
        pair = r.effects_of(a)
        assert len(eig_calls) == 2
        eig_calls.clear()
        again = r.effects_of(a)
        assert len(eig_calls) == 0
        assert again is pair and all(e.matrix is f.matrix for e, f in zip(again, pair))
        assert not any(e.matrix.flags.writeable for e in pair)
        r.classify(a, 1e-8)
        eig_calls.clear()
        other = r.effects_of(a, 1e-8)
        assert len(eig_calls) == 2 and other is not pair


def test_a_failing_effect_pair_is_not_kept():
    # A map that is not an operation raises before any pair is formed, on
    # every call, and keeps nothing.
    gen = rng(318)
    a = r.scale(rand_operation(gen, 3), 2.0)
    for _ in range(2):
        with pytest.raises(r.NotOperation):
            r.effects_of(a)
    assert not [key for key in a._memo if key[0] == "effects"]


def test_estimates_build_each_instruments_stack_once(monkeypatch):
    # The sampler's component stack, (d*d, K*d*d), is built on an
    # instrument's first sampled step and kept on it, read-only: two estimate
    # calls over 12 steps of two instruments, in 3 chunks each, build 2.
    stacks = []
    concatenate = np.concatenate

    def counted(arrays, axis=0, **kwargs):
        if axis == 1:
            stacks.append(len(arrays))
        return concatenate(arrays, axis=axis, **kwargs)

    monkeypatch.setattr(np, "concatenate", counted)
    monkeypatch.setattr(sim, "_CHUNK", 40)
    z, x = z_instrument(), x_instrument()
    reports = [r.estimate([z, x] * 6, (11, "+"), (0, "+"), 100, seed=3) for _ in range(2)]
    assert reports[0] == reports[1]
    assert stacks == [2, 2]
    for inst in (z, x):
        assert sim._stack(inst) is inst._stack and not inst._stack.flags.writeable
        assert np.array_equal(inst._stack, concatenate([inst.op(k).mat.T for k in inst.outcomes], axis=1))


def _joints(a) -> list:
    """The partners whose joint weight the map ``a`` keeps, one
    ``("joint", id(partner))`` per partner, in the order they were kept."""
    return [("joint", id(b)) for b in a._memo.get(("joints", None), ())]


def test_each_ordered_pair_computes_its_joint_once(monkeypatch):
    # p_pred(a, b) and p_retro(b, a) read the one joint of (a, b); (b, a) is
    # a separate entry, kept on b.  All posteriors of one condition over a
    # K-member resolution cost K joints per direction, not K per posterior.
    computed = _count_calls(monkeypatch, superop, "_joint_weight")
    gen = rng(319)
    for d in (2, 3, 5):
        a, b = rand_operation(gen, d), rand_operation(gen, d)
        computed.clear()
        for _ in range(3):
            r.p_pred(a, b)
            r.p_retro(b, a)
        assert computed == [a]
        assert _joints(a) == [("joint", id(b))] and not _joints(b)
        r.p_retro(a, b)
        assert computed == [a, b]
        assert _joints(b) == [("joint", id(a))]
        res = rand_resolution(gen, d, 4)
        computed.clear()
        for _ in range(2):
            for j in range(len(res)):
                r.bayes_retrodict(res, b, j)
                r.bayes_predict(res, b, j)
        assert computed == [b] * 4 + res
        assert len(_joints(b)) == 5 and all(_joints(m) == [("joint", id(b))] for m in res)


def test_kept_joints_match_the_checked_formula_on_first_and_repeat_calls():
    gen = rng(320)
    for d in range(2, 9):
        a, b = rand_operation(gen, d), rand_operation(gen, d)
        res = rand_resolution(gen, d, 3)
        i, k = unsharp_instrument(gen, d, 3), unsharp_instrument(gen, d, 2)
        ia, kb = r.summed(i, ["e0", "e2"]), r.summed(k, ["e1"])
        want = (
            [_ref_cond(a, b, b), _ref_cond(b, a, b), _ref_cond(a, a, a), _ref_cond(ia, kb, kb), _ref_cond(kb, ia, kb)]
            + [_ref_bayes(lambda x, y: (x, y), res, b, j) for j in range(3)]
            + [_ref_bayes(lambda x, y: (y, x), res, b, j) for j in range(3)]
        )
        for _ in range(2):
            got = (
                [r.p_pred(a, b), r.p_retro(a, b), r.p_pred(a, a)]
                + [r.p_cond_pred(i, k, ["e0", "e2"], ["e1"]), r.p_cond_retro(i, k, ["e2", "e0"], ["e1"])]
                + [r.bayes_retrodict(res, b, j) for j in range(3)]
                + [r.bayes_predict(res, b, j) for j in range(3)]
            )
            assert got == want


def test_a_joint_goes_when_its_partner_dies():
    # The partner is held weakly and its death drops the entry, by reference
    # counting alone; a map queried against many short-lived partners keeps
    # no entry for any of them.
    gen = rng(321)
    old = gc.isenabled()
    gc.disable()
    try:
        for d in (2, 3):
            a, b = rand_operation(gen, d), rand_operation(gen, d)
            r.p_pred(a, b)
            r.p_retro(a, b)
            assert _joints(a) == [("joint", id(b))] and _joints(b) == [("joint", id(a))]
            ref = weakref.ref(b)
            del b
            assert ref() is None
            assert not _joints(a)
            for _ in range(200):
                r.p_pred(a, r.scale(a, 0.5))
                r.p_retro(a, r.scale(a, 0.5))
            assert not _joints(a)
            b = rand_operation(gen, d)
            r.p_pred(a, b)
            ref = weakref.ref(a)
            del a
            assert ref() is None
            assert not _joints(b)
    finally:
        if old:
            gc.enable()


def test_kept_joints_hold_no_cycle_and_the_adjoint_carries_none():
    gen = rng(322)
    a, b = rand_operation(gen, 2), rand_operation(gen, 2)
    res = rand_resolution(gen, 2, 2)
    r.p_pred(a, a)
    r.p_pred(a, b)
    r.p_retro(a, b)
    r.bayes_retrodict(res, a, 0)
    r.bayes_predict(res, a, 1)
    for m in [a, b] + res:
        assert _joints(m)
        assert not _reaches(m._memo, m)
    assert len(_joints(a)) == 4
    rev = r.adjoint(a)
    assert r.classify(rev) == r.classify(r.Superoperator(2, a.mat.conj().T))
    assert not _joints(rev)
    assert r.p_pred(rev, rev) == _ref_cond(rev, rev, rev)
    assert _joints(rev) == [("joint", id(rev))] and not _reaches(rev._memo, rev)


def test_a_map_keeps_the_joints_of_at_most_max_joints_live_partners(monkeypatch):
    # Past the cap a partner's joint is computed on every call and not kept;
    # kept or not, each value is the checked formula's to the bit, and a
    # kept partner that dies frees its slot for the next one.
    computed = _count_calls(monkeypatch, superop, "_joint_weight")
    cap = superop._MAX_JOINTS
    gen = rng(324)
    old = gc.isenabled()
    gc.disable()
    try:
        for d in (2, 3):
            a = rand_operation(gen, d)
            partners = [rand_operation(gen, d) for _ in range(cap + 16)]
            want = [(_ref_cond(a, b, b), _ref_cond(a, b, a)) for b in partners]
            computed.clear()
            for calls in (cap + 32, cap + 64):
                assert [(r.p_pred(a, b), r.p_retro(b, a)) for b in partners] == want
                assert len(computed) == calls
                assert _joints(a) == [("joint", id(b)) for b in partners[:cap]]
            ref = weakref.ref(partners[0])
            del partners[0]
            assert ref() is None
            assert len(_joints(a)) == cap - 1
            assert r.p_pred(a, partners[-1]) == want[-1][0]
            assert _joints(a)[-1] == ("joint", id(partners[-1])) and len(_joints(a)) == cap
    finally:
        if old:
            gc.enable()


def test_an_all_pairs_sweep_takes_bounded_memory():
    # p_pred over all 160,000 ordered pairs of 400 live qubit projectors,
    # classified first, so the sweep adds only joints.  Uncapped, one entry
    # per pair grew the peak by 31-44 MB; capped, by about 4 MB.
    ceiling_mb = 15
    here = Path(__file__).parent
    code = textwrap.dedent(
        """
        import resource, sys
        import numpy as np
        import retroops as r
        gen = np.random.default_rng(5)
        maps = []
        for _ in range(400):
            v = gen.normal(size=2) + 1j * gen.normal(size=2)
            v /= np.linalg.norm(v)
            maps.append(r.projecting(np.outer(v, v.conj())))
            r.classify(maps[-1])
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for a in maps:
            for b in maps:
                r.p_pred(a, b)
        grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        print(grown / (2**20 if sys.platform == "darwin" else 2**10))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < ceiling_mb


def test_a_non_map_partner_raises_on_every_call_and_leaves_no_entry():
    # check=False lets the non-map reach the joint on either side; a partner
    # of another dim is a DimensionMismatch.
    a = rand_operation(rng(323), 2)
    for bad, error in ((3, r.ValidationError), (None, r.ValidationError), (np.eye(4), r.ValidationError),
                       (r.unit(3), r.DimensionMismatch)):
        for _ in range(2):
            with pytest.raises(error):
                r.p_retro(bad, a, check=False)
            with pytest.raises(error):
                r.p_pred(bad, a, check=False)
            with pytest.raises(error):
                superop._composed_weight(a, bad)
        assert not _joints(a)
        if isinstance(bad, r.Superoperator):
            assert not _joints(bad)


def test_the_adjoint_inherits_the_cp_verdict(eig_calls):
    # adjoint copies each CP verdict with the classify records, so the Kraus
    # factor of a time reversal makes no eigensolve, and is_cp cannot disagree
    # with the inherited record at the tolerance boundary.
    gen = rng(324)
    for d in (2, 3, 4):
        for a in (rand_operation(gen, d), rand_cp(gen, d), rand_noncp(gen, d)):
            for tol in (1e-12, 1e-9):
                cls = r.classify(a, tol)
                eig_calls.clear()
                rev = r.adjoint(a)
                assert r.is_cp(rev, tol) is r.classify(rev, tol).cp is cls.cp
                if cls.operation:
                    ks = r.extract_kraus(r.time_reverse(a, tol), tol)
                    assert np.abs(r.from_kraus(ks.ops, dim=d).mat - rev.mat).max() < 1e-9
                elif cls.cp:
                    r.extract_kraus(rev, tol)
                assert len(eig_calls) == 0
        # A verdict kept without a classify record is copied too.
        b = r.from_tensor(rand_cp(gen, d).mat)
        assert r.is_cp(b)
        eig_calls.clear()
        assert r.is_cp(r.adjoint(b))
        assert len(eig_calls) == 0
        # So is a Kraus-built map's Gram bound: its adjoint certifies a
        # verdict at a tolerance never asked of the map itself.
        c = rand_cp(gen, d)
        rev = r.adjoint(c)
        assert rev._memo["gram", None] == c._memo["gram", None]
        eig_calls.clear()
        assert r.is_cp(rev, 1e-6)
        assert len(eig_calls) == 0
