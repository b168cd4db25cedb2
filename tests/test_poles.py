"""Pole solver: reference wave numbers, residual oracle, classification."""

import cmath
import json
import math
import re
from collections import Counter
from types import SimpleNamespace

import mpmath as mp
import pytest

import deltashell.cli as cli
import deltashell.poles as poles_module
from deltashell import (
    DegeneratePole,
    InvalidInput,
    NonConvergence,
    NoSuchPole,
    PoleKind,
    PotentialSpec,
    enumerate_poles,
    find_anti_resonance,
    find_bound_state,
    find_resonance,
    find_virtual_state,
    transcendental_residual,
)
from conftest import TABLE_LAMBDAS, assert_printed, golden_rows
from reference import reference_pole


@pytest.mark.parametrize("lam", TABLE_LAMBDAS)
def test_reference_wave_numbers_and_energies(lam):
    spec = PotentialSpec(lam=lam)
    rows = golden_rows(lam)
    poles = enumerate_poles(spec, 8)
    assert len(poles) == len(rows)
    for pole, row in zip(poles, rows):
        assert pole.kind.value == row["kind"]
        tag = f"lam={lam} {row['kind']} n={row['index']}"
        assert_printed(pole.k.real, row["re_k"], f"{tag} Re k")
        assert_printed(pole.k.imag, row["im_k"], f"{tag} Im k")
        assert_printed(pole.z.real, row["re_z"], f"{tag} Re z")
        assert_printed(pole.z.imag, row["im_z"], f"{tag} Im z")
        assert_printed(pole.gamma_R, row["gamma_R"], f"{tag} gamma_R")


@pytest.mark.parametrize("lam", TABLE_LAMBDAS)
def test_transcendental_residual_oracle(lam):
    spec = PotentialSpec(lam=lam)
    for pole in enumerate_poles(spec, 8):
        assert transcendental_residual(spec, pole.k) <= 1e-12
    for n in range(1, 9):
        assert transcendental_residual(spec, find_anti_resonance(spec, n).k) <= 1e-12


def test_energy_is_k_squared_exactly():
    for lam in TABLE_LAMBDAS:
        for pole in enumerate_poles(PotentialSpec(lam=lam), 8):
            assert pole.z == pole.k * pole.k


@pytest.mark.parametrize("lam", TABLE_LAMBDAS)
def test_anti_resonance_mirror_symmetry(lam):
    spec = PotentialSpec(lam=lam)
    for n in range(1, 9):
        k_res = find_resonance(spec, n).k
        k_anti = find_anti_resonance(spec, n).k
        assert abs(k_anti + k_res.conjugate()) <= 1e-12


def test_anti_resonance_reference_values():
    spec = PotentialSpec(lam=100.0)
    k = find_anti_resonance(spec, 1).k
    assert_printed(k.real, "-3.1105", "anti lam=100 Re k")
    assert_printed(k.imag, "-0.000956", "anti lam=100 Im k")
    spec = PotentialSpec(lam=10.0)
    k = find_anti_resonance(spec, 3).k
    assert_printed(k.real, "-8.8807", "anti lam=10 Re k")
    assert_printed(k.imag, "-0.34784", "anti lam=10 Im k")


def test_bound_state_reference_values():
    k = find_bound_state(PotentialSpec(lam=-10.0)).k
    assert k.real == 0.0
    assert_printed(k.imag, "4.9998", "bound lam=-10")
    pole = find_bound_state(PotentialSpec(lam=-100.0))
    assert_printed(pole.k.imag, "50", "bound lam=-100 k")
    assert_printed(pole.z.real, "-2500", "bound lam=-100 z")
    assert pole.gamma_R == 0.0


def test_virtual_state_reference_values():
    pole = find_virtual_state(PotentialSpec(lam=-0.5))
    assert pole.k.real == 0.0
    assert_printed(pole.k.imag, "-0.6282", "virtual k")
    assert_printed(pole.z.real, "-0.3947", "virtual z")
    assert pole.gamma_R == 0.0


def test_no_such_pole_conditions():
    with pytest.raises(NoSuchPole, match=r"^no bound state for strength -0\.5$"):
        find_bound_state(PotentialSpec(lam=-0.5))
    with pytest.raises(NoSuchPole):
        find_bound_state(PotentialSpec(lam=2.0))
    with pytest.raises(NoSuchPole):
        find_virtual_state(PotentialSpec(lam=0.5))
    with pytest.raises(NoSuchPole, match=r"^no virtual state for strength -10\.0$"):
        find_virtual_state(PotentialSpec(lam=-10.0))
    # next to the threshold each side has its pole on the imaginary axis, at the 50-digit root
    for lam, find, kind in ((-1.0 - 1e-12, find_bound_state, PoleKind.BOUND),
                            (-1.0 + 1e-12, find_virtual_state, PoleKind.VIRTUAL_STATE)):
        pole = find(PotentialSpec(lam=lam))
        ref = mp.im(reference_pole(lam, pole.branch))
        assert pole.kind is kind and pole.k.real == 0.0
        assert abs(pole.k.imag - ref) <= 1e-15 * abs(ref), (lam, pole.k, ref)
    # at lam = -1 the two meet at k = 0, where N^2 is 0/0: a typed refusal, not a missing row
    spec = PotentialSpec(lam=-1.0)
    for find in (find_bound_state, find_virtual_state, lambda s: enumerate_poles(s, 1)):
        with pytest.raises(DegeneratePole, match=r" at strength -1\.0, "):
            find(spec)


@pytest.mark.parametrize("argv", [
    ["table", "--count", "1"], ["poles", "--count", "1"],
    ["spectrum", "--virtual", "--emin", "0.1", "--emax", "1", "--points", "3"],
])
def test_threshold_strength_minus_one_exits_3(argv, capsys):
    assert cli.main([*argv, "--lambda", "-1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == ("numerical failure: the bound and virtual states meet at "
                                 "k = 0 at strength -1.0, where N^2 is 0/0\n")


def test_virtual_state_near_collision_still_resolves():
    spec = PotentialSpec(lam=-0.9)
    pole = find_virtual_state(spec)
    assert pole.k.real == 0.0 and pole.k.imag < 0.0
    assert transcendental_residual(spec, pole.k) <= 1e-12


@pytest.mark.parametrize("lam", [
    -700.0, -3.0, -1.0 - 1.5e-10, -1.0 + 1.5e-10, -0.3, -1e-100, -1e-300, -5e-324,
])
def test_threshold_pole_matches_the_reference_down_to_the_smallest_float(lam):
    # no Lambert W at the branch point and no e^{2 kappa}: the bound or virtual
    # Im k is within 1e-15 of the 50-digit root wherever the strength is admitted
    pole = (find_bound_state if lam < -1.0 else find_virtual_state)(PotentialSpec(lam=lam))
    ref = mp.im(reference_pole(lam, pole.branch))
    assert abs(pole.k.imag - ref) <= 1e-15 * abs(ref), (lam, pole.k, ref)


def test_invalid_strengths():
    with pytest.raises(InvalidInput):
        PotentialSpec(lam=0.0)
    with pytest.raises(InvalidInput):
        PotentialSpec(lam=math.inf)
    with pytest.raises(TypeError):  # the radius is the command line's output scale
        PotentialSpec(lam=1.0, a=2.0)
    with pytest.raises(InvalidInput):
        find_resonance(PotentialSpec(lam=1.0), 0)
    with pytest.raises(InvalidInput):
        enumerate_poles(PotentialSpec(lam=1.0), 0)


_NO_MASS_OR_HBAR = "physical units need finite positive mass and hbar"
UNIT_ERRORS = [
    (math.inf, 1.0, _NO_MASS_OR_HBAR), (1.0, math.inf, _NO_MASS_OR_HBAR),
    (math.nan, 1.0, _NO_MASS_OR_HBAR), (0.0, 1.0, _NO_MASS_OR_HBAR),
    (1.0, -1.0, _NO_MASS_OR_HBAR),
    (1e-320, 1.0, "energy scale hbar^2/2m = inf is not finite and nonzero"),
    (1e300, 1e-300, "energy scale hbar^2/2m = 0.0 is not finite and nonzero"),
    # an OverflowError in hbar**2, read as inf
    (1.0, 1e200, "energy scale hbar^2/2m = inf is not finite and nonzero"),
    (1.0, 1e-160, "energy scale hbar^2/2m = 5e-321 is subnormal and loses digits"),
]


@pytest.mark.parametrize("mass, hbar, message", UNIT_ERRORS,
                         ids=[f"{mass}-{hbar}" for mass, hbar, _ in UNIT_ERRORS])
def test_physical_units_need_finite_nonzero_energy_scale(mass, hbar, message, capsys):
    # pole records are reduced; hbar^2/2m is the command line's alone,
    # checked once, after the spec's own checks
    units = ["--mass", repr(mass), "--hbar", repr(hbar)]
    for command in ("poles", "table"):
        code = cli.main([command, "--lambda", "10", "--units", "physical", *units])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
        cli.main([command, "--lambda", "0", "--units", "physical", *units])
        assert capsys.readouterr().err == "error: potential strength must be finite and nonzero\n"
        # without --units physical, mass and hbar are refused, not dropped
        code = cli.main([command, "--lambda", "10", "--count", "1", *units])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", "error: --mass and --hbar need --units physical\n")


def test_enumeration_order_and_composition():
    poles = enumerate_poles(PotentialSpec(lam=-10.0), 8)
    assert poles[0].kind is PoleKind.BOUND
    assert [p.kind for p in poles[1:]] == [PoleKind.RESONANCE] * 8
    re_k = [p.k.real for p in poles[1:]]
    assert all(a < b for a, b in zip(re_k, re_k[1:]))

    poles = enumerate_poles(PotentialSpec(lam=100.0), 8)
    assert all(p.kind is PoleKind.RESONANCE for p in poles)

    poles = enumerate_poles(PotentialSpec(lam=-0.5), 3)
    assert poles[0].kind is PoleKind.VIRTUAL_STATE
    assert len(poles) == 4


def test_trivial_self_root_never_returned():
    # W(lam e^lam) = lam maps to k = 0; every returned pole must be elsewhere
    for lam in TABLE_LAMBDAS:
        for pole in enumerate_poles(PotentialSpec(lam=lam), 8):
            assert abs(pole.k) > 0.5


@pytest.mark.parametrize("lam", (100.0, -100.0))
def test_high_barrier_resonances_approach_lattice(lam):
    # leading deviation from the lattice is n pi / |1 + lam|, which already
    # exceeds 0.2 at n = 8 for |lam| = 100 (see the reference n=8 entries)
    spec = PotentialSpec(lam=lam)
    for n in range(1, 9):
        pole = find_resonance(spec, n)
        if n <= 6:
            assert abs(pole.k.real - n * math.pi) < 0.2
        assert abs(pole.k.real - n * math.pi) <= 1.5 * n * math.pi / abs(1.0 + lam)


def test_quadrant_classification():
    spec = PotentialSpec(lam=0.5)
    res = find_resonance(spec, 1)
    assert res.k.real > 0 and res.k.imag < 0
    anti = find_anti_resonance(spec, 1)
    assert anti.k.real < 0 and anti.k.imag < 0
    assert anti.gamma_R == -res.gamma_R  # mirror pole carries the sign


def test_radius_scaling(capsys):
    # k scales as 1/a at fixed strength; z = k^2 follows. The library works
    # at a = 1; the command line writes each value times its power of a.
    pole = find_resonance(PotentialSpec(lam=10.0), 1)
    code = cli.main(["poles", "--lambda", "10", "--radius", "2", "--count", "1",
                     "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert json.loads(out)["meta"]["a"] == 2.0
    printed = [row[name] for name in ("re_k", "im_k", "re_z", "im_z", "gamma_R")]
    # 2 is a power of two: dividing by it is exact
    scaled = [pole.k.real / 2, pole.k.imag / 2, pole.z.real / 4, pole.z.imag / 4,
              pole.gamma_R / 4]
    assert printed == [float("%.9g" % x) for x in scaled]


def test_off_quadrant_root_is_a_numerical_failure(monkeypatch, capsys):
    # W across the cut from the pole's branch gives the mirror root
    # -conj(k_1) in the third quadrant: a failed solve (exit 3), never a
    # refused input (exit 2), and nothing is memoized
    lambert_w = poles_module.lambert_w
    monkeypatch.setattr(poles_module, "lambert_w", lambda b, z: lambert_w(b, z).conjugate())
    message = r"^branch -1 root \(-[0-9.e+-]+-[0-9.e+-]+j\) is not in the fourth quadrant$"
    spec = PotentialSpec(lam=10.0)
    with pytest.raises(NonConvergence, match=message):
        find_resonance(spec, 1)
    assert spec._resonances == {}
    assert cli.main(["table", "--lambda", "10", "--count", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: branch -1 root (-")
    assert err.endswith(") is not in the fourth quadrant\n")


def _count_work(monkeypatch):
    """Count the k-space exponentials of the poles module and its Lambert W solves."""
    calls = Counter()
    solve, exp = poles_module.lambert_w, cmath.exp

    def counted_solve(branch, z):
        calls["lambert_w"] += 1
        return solve(branch, z)

    def counted_exp(x):
        calls["exp"] += 1
        return exp(x)

    monkeypatch.setattr(poles_module, "lambert_w", counted_solve)
    counted = SimpleNamespace(**{**vars(cmath), "exp": counted_exp})
    monkeypatch.setattr(poles_module, "cmath", counted)
    return calls


def test_resonance_costs_two_exponentials_and_its_mirror_none(monkeypatch):
    # the gate reads the |f| the second Newton step formed, and a mirror shares
    # the residual of its memoized resonance
    calls = _count_work(monkeypatch)
    for n in range(1, 13):
        spec = PotentialSpec(lam=10.0)
        find_resonance(spec, n)
        assert calls == {"lambert_w": 1, "exp": 2}, n
        calls.clear()
        find_anti_resonance(spec, n)
        assert calls == {}, n
    spec = PotentialSpec(lam=10.0)
    enumerate_poles(spec, 12)
    for n in range(1, 13):
        find_anti_resonance(spec, n)
    assert calls == {"lambert_w": 12, "exp": 24}


@pytest.mark.parametrize("lam, n, answered", [
    (653.4455625843766, 10, True),  # |f| 1.0024e-12 before the last step, 9.967e-13 after
    (250.0, 11, False),  # 1.479e-12 before, and after: a known defect of the absolute gate
])
def test_resonance_past_the_polish_gate_is_judged_at_the_root(lam, n, answered, monkeypatch):
    # a third exponential, only where |f| before the last step exceeds 1e-12:
    # no root answered with |f(k)| <= 1e-12 is refused, and a refusal keeps its digits
    calls = _count_work(monkeypatch)
    spec = PotentialSpec(lam=lam)
    if answered:
        k = find_resonance(spec, n).k
        assert calls == {"lambert_w": 1, "exp": 3}
        assert transcendental_residual(spec, k) <= 1e-12
    else:
        message = rf"^pole resonance n={n} residual 1\.479e-12 exceeds 1e-12$"
        with pytest.raises(NonConvergence, match=message):
            find_resonance(spec, n)
        assert calls == {"lambert_w": 1, "exp": 3}
        assert spec._resonances == {}



@pytest.mark.parametrize("lam, kinds", [
    (-3.0, [PoleKind.BOUND]), (-0.5, [PoleKind.VIRTUAL_STATE]), (0.5, []),
])
def test_enumerate_poles_decides_the_threshold_kind_once(lam, kinds, monkeypatch):
    # the enumeration solves the pole of the kind it decided; only the public
    # finders decide it again, to refuse a strength without that pole
    calls = []
    decide = poles_module._threshold_kind
    monkeypatch.setattr(poles_module, "_threshold_kind",
                        lambda spec: calls.append(spec.lam) or decide(spec))
    poles = enumerate_poles(PotentialSpec(lam=lam), 2)
    assert calls == [lam]
    assert [p.kind for p in poles] == kinds + [PoleKind.RESONANCE] * 2


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("lam", [
    2.2250738585072014e-308, -2.2250738585072014e-308, 1e-307, -1e-307,
    1e-306, -1e-306, 2e-306, -2e-306,
])
def test_polish_overflow_is_a_typed_refusal(lam, n):
    # e^{2ik} overflows in the polish near the smallest normal strengths: a
    # NonConvergence that names the pole and the strength, and nothing memoized
    spec = PotentialSpec(lam=lam)
    message = rf"^pole resonance n={n} at strength {re.escape(repr(lam))}: "
    with pytest.raises(NonConvergence, match=message):
        find_resonance(spec, n)
    assert spec._resonances == {}
    with pytest.raises(NonConvergence, match=message):
        find_anti_resonance(spec, n)
    assert spec._resonances == {}


@pytest.mark.parametrize("find, lam, message", [
    (find_virtual_state, -0.5, "pole virtual_state n=0 residual 6.332e-04 exceeds 2.51e-13"),
    (find_bound_state, -3.0, "pole bound n=0 residual 9.379e-04 exceeds 2.2e-13"),
])
def test_threshold_pole_off_its_root_is_refused(find, lam, message, monkeypatch, capsys):
    # one Newton step leaves the seed far from the root: the residual gate refuses
    # it, as a NonConvergence in the library and exit 3 with that one line
    monkeypatch.setattr(poles_module, "_AXIS_STEPS", 1)
    with pytest.raises(NonConvergence, match=f"^{re.escape(message)}$"):
        find(PotentialSpec(lam=lam))
    assert cli.main(["table", "--lambda", str(lam), "--count", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"numerical failure: {message}\n"


def test_polish_stops_where_the_derivative_vanishes():
    # f'(k) = 2i (1 + lam e^{2ik}) is 0 at k = 0 for lam = -1: the polish returns
    # k and the |f| it formed there, and leaves the verdict to the gate
    assert poles_module._polish_complex(PotentialSpec(lam=-1.0), 0j) == (0j, 0.0)
