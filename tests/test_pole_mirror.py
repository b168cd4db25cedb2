"""Anti-resonances as mirrors of resonances, the per-spec resonance memo,
and the integer checks on pole indices and Lambert W branches."""

import copy
import dataclasses
import math
import pickle
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deltashell.cli as cli
import deltashell.poles as poles_module
from deltashell import (
    DeltaShellError,
    InvalidInput,
    NonConvergence,
    PoleKind,
    PotentialSpec,
    enumerate_poles,
    find_anti_resonance,
    find_resonance,
    lambert_w,
    transcendental_residual,
)
from deltashell.poles import _polish_complex


def _branch_solve(spec, n):
    """Anti-resonance n solved on its own: branch +n of W, then Newton polish."""
    w = lambert_w(n, spec.lam * math.exp(spec.lam))
    return _polish_complex(spec, (spec.lam - w) / 2j)[0]


def _ulps(x, y):
    # distance in representable doubles; x and y share a sign here
    a, b = struct.unpack("<2q", struct.pack("<2d", x, y))
    return abs(a - b)


def _hex(c):
    return c.real.hex(), c.imag.hex()


def test_mirror_matches_independent_branch_solve():
    # for a barrier from n = 2 on, branches -n and +n are both solved on the
    # log form from conjugate Log z + 2 pi i n, so the roots are bit-equal; at
    # n = 1 branch -1 is Halley's and branch 1 the log form's, and Im k, small
    # beside Re k there, parts by up to 0.83 eps/2 of |k| (20,000 pole_atlas
    # ops of seed 5). For a well, branch +n's Log z + 2 pi i n is the
    # conjugate of branch -(n + 1)'s only up to rounding, so the two roots
    # may part by a few ulp: at most 4 in these draws
    rng = random.Random(20171)
    for i in range(300):
        lam = math.copysign(math.exp(rng.uniform(math.log(0.15), math.log(100.0))), (-1) ** i)
        spec = PotentialSpec(lam=lam)
        for n in range(1, 9):
            mirror = find_anti_resonance(spec, n).k
            reference = _branch_solve(spec, n)
            if lam > 0 and n > 1:
                assert _hex(mirror) == _hex(reference), (lam, n)
            elif lam > 0:
                assert _ulps(mirror.real, reference.real) <= 1, (lam, n)
                assert abs(mirror.imag - reference.imag) <= 2.0**-53 * abs(reference), (lam, n)
            else:
                assert _ulps(mirror.real, reference.real) <= 4, (lam, n)
                assert _ulps(mirror.imag, reference.imag) <= 4, (lam, n)
    # wells where the two part: of the first 20,000 pole_atlas ops of seed 5,
    # 531 anti-resonances, all at n = 10, by 1 to 8 ulp of Im k (the 8 is
    # 3.5e-18 of |k|) and at most 1 ulp of Re k
    for lam, ulps in ((-0.2674010056098198, 1), (-84.21104345720249, 8)):
        spec = PotentialSpec(lam=lam)
        mirror, reference = find_anti_resonance(spec, 10).k, _branch_solve(spec, 10)
        assert mirror.real == reference.real and _ulps(mirror.imag, reference.imag) == ulps


@settings(max_examples=300, deadline=None)
@given(
    mag=st.floats(0.15, 100.0),
    sign=st.sampled_from((1.0, -1.0)),
    n=st.integers(1, 12),
)
def test_anti_resonance_is_bitwise_mirror_of_resonance(mag, sign, n):
    lam = sign * mag
    try:
        res = find_resonance(PotentialSpec(lam=lam), n)
    except DeltaShellError as exc:
        with pytest.raises(DeltaShellError) as info:
            find_anti_resonance(PotentialSpec(lam=lam), n)
        assert type(info.value) is type(exc)
        return
    held = PotentialSpec(lam=lam)
    find_resonance(held, n)
    for spec in (PotentialSpec(lam=lam), held):
        anti = find_anti_resonance(spec, n)
        assert (anti.kind, anti.branch, anti.index) == (PoleKind.ANTI_RESONANCE, n, n)
        assert _hex(anti.k) == ((-res.k.real).hex(), res.k.imag.hex())
        assert _hex(anti.z) == _hex(anti.k * anti.k)


def test_repeat_find_returns_the_stored_pole():
    spec = PotentialSpec(lam=10.0)
    first = find_resonance(spec, 3)
    assert find_resonance(spec, 3) is first
    assert find_resonance(spec, np.int64(3)) is first
    assert enumerate_poles(spec, 4)[2] is first


def test_memo_is_invisible_to_value_semantics():
    used = PotentialSpec(lam=-10.0)
    enumerate_poles(used, 6)
    find_anti_resonance(used, 3)
    fresh = PotentialSpec(lam=-10.0)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert dataclasses.fields(used) == dataclasses.fields(fresh)
    assert dataclasses.asdict(used) == dataclasses.asdict(fresh)
    expected = enumerate_poles(PotentialSpec(lam=-10.0), 6)
    for clone in (pickle.loads(pickle.dumps(used)), copy.copy(used), copy.deepcopy(used)):
        assert clone == used
        assert enumerate_poles(clone, 6) == expected
    moved = dataclasses.replace(used, lam=10.0)
    assert enumerate_poles(moved, 6) == enumerate_poles(PotentialSpec(lam=10.0), 6)
    assert find_anti_resonance(moved, 2) == find_anti_resonance(PotentialSpec(lam=10.0), 2)


@pytest.mark.parametrize("lam", (10.0, -0.5, -10.0))
def test_anti_resonance_reads_a_memoized_resonance(lam, monkeypatch):
    spec = PotentialSpec(lam=lam)
    resonances = enumerate_poles(spec, 5)[-5:]

    def refuse(*args):
        raise AssertionError("find_resonance entered on a memo hit")

    monkeypatch.setattr(poles_module, "find_resonance", refuse)
    monkeypatch.setattr(poles_module, "lambert_w", refuse)
    for n, res in enumerate(resonances, start=1):
        anti = find_anti_resonance(spec, np.int64(n))
        assert anti.kind is PoleKind.ANTI_RESONANCE and anti.branch == anti.index == n
        assert _hex(anti.k) == ((-res.k.real).hex(), res.k.imag.hex())
        assert _hex(anti.z) == _hex(anti.k * anti.k)
        assert spec._resonances[n] is res


@pytest.mark.parametrize("lam", (10.0, -0.5, -10.0))
def test_anti_resonance_solves_a_missing_resonance_once(lam, monkeypatch):
    spec = PotentialSpec(lam=lam)
    branches = []

    def counted(branch, z):
        branches.append(branch)
        return lambert_w(branch, z)

    monkeypatch.setattr(poles_module, "lambert_w", counted)
    anti = find_anti_resonance(spec, 3)
    assert branches == [-3 if lam > 0 else -4]
    stored = spec._resonances[3]
    assert list(spec._resonances) == [3]
    assert _hex(anti.k) == ((-stored.k.real).hex(), stored.k.imag.hex())
    assert find_anti_resonance(spec, 3) == anti
    assert find_resonance(spec, 3) is stored
    assert len(branches) == 1
    assert stored == find_resonance(PotentialSpec(lam=lam), 3)


def _assert_mirror_keeps_the_residual(spec, k):
    mirrored = transcendental_residual(spec, -k.conjugate())
    assert mirrored.hex() == transcendental_residual(spec, k).hex(), (spec.lam, k)


def _on_and_off_pole(spec, n, offset):
    """The resonance n of spec, when it is found, and points off it."""
    points = [complex(offset.real, -abs(offset.imag)), offset]
    try:
        k = find_resonance(spec, n).k
    except DeltaShellError:
        return points
    return points + [k, k * (1.0 + 1e-9j), k + offset * 1e-6, k + offset * 1e-3]


def test_mirror_residual_has_the_resonance_bits():
    # f(-conj k) = conj f(k) for real lam, bit for bit: a resonance that passed
    # its gate hands the mirror its residual, so the mirror needs no gate
    rng = random.Random(22)
    checked = 0
    for i in range(400):
        lam = math.copysign(math.exp(rng.uniform(math.log(1e-3), math.log(700.0))), (-1) ** i)
        spec = PotentialSpec(lam=lam)
        for n in (1, 2, 5, 12, 40):
            offset = complex(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
            for k in _on_and_off_pole(spec, n, offset):
                _assert_mirror_keeps_the_residual(spec, k)
                checked += 1
    assert checked > 10_000


@settings(max_examples=300, deadline=None)
@given(
    mag=st.floats(5e-324, 700.0),
    sign=st.sampled_from((1.0, -1.0)),
    n=st.integers(1, 40),
    re=st.floats(-300.0, 300.0),
    im=st.floats(-300.0, 300.0),
)
def test_mirror_residual_has_the_bits_of_any_k(mag, sign, n, re, im):
    spec = PotentialSpec(lam=sign * mag)
    for k in _on_and_off_pole(spec, n, complex(re, im)):
        _assert_mirror_keeps_the_residual(spec, k)


def test_failed_find_stores_nothing():
    # lam = 250, n = 12 is a known defect: the absolute residual gate rejects it
    spec = PotentialSpec(lam=250.0)
    for _ in range(2):
        with pytest.raises(NonConvergence):
            find_resonance(spec, 12)
        with pytest.raises(NonConvergence):
            find_anti_resonance(spec, 12)


@pytest.mark.parametrize("lam, extra", ((10.0, 0), (-0.5, 1), (-10.0, 1)))
def test_poles_with_antiresonances_solves_each_resonance_once(lam, extra, monkeypatch, capsys):
    branches = []

    def counted(branch, z):
        branches.append(branch)
        return lambert_w(branch, z)

    monkeypatch.setattr(poles_module, "lambert_w", counted)
    argv = ["poles", "--lambda", repr(lam), "--count", "6", "--include-antiresonances"]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 12 + extra
    # one solve per resonance, none on branch +n; the bound or virtual state
    # is solved without Lambert W
    assert branches == [-n - (lam < 0.0) for n in range(1, 7)]


@pytest.mark.parametrize("bad", (2.5, 2.0, np.float64(2.0), "2", None))
def test_non_integral_indices_are_invalid_input(bad):
    spec = PotentialSpec(lam=10.0)
    with pytest.raises(InvalidInput):
        find_resonance(spec, bad)
    with pytest.raises(InvalidInput):
        find_anti_resonance(spec, bad)
    with pytest.raises(InvalidInput):
        enumerate_poles(spec, bad)
    with pytest.raises(InvalidInput):
        lambert_w(bad, 1.0)


def test_numpy_integer_indices_give_plain_ints():
    spec = PotentialSpec(lam=-10.0)
    for pole in (find_resonance(spec, np.int64(2)), find_anti_resonance(spec, np.int32(2))):
        assert type(pole.index) is int and type(pole.branch) is int
    assert find_resonance(spec, np.int64(2)) == find_resonance(PotentialSpec(lam=-10.0), 2)
    assert len(enumerate_poles(spec, np.int16(3))) == 4
    assert lambert_w(np.int64(-2), 1.0) == lambert_w(-2, 1.0)
