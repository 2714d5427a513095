"""The resolvent formula against the per-point reference of
``krein_reference``: every parameter shape, points on and off the real axis,
representations that are and are not the analysis's own, and the guards."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import krein_reference as ref
from oracles import DEFAULT_CLASS_POINTS, kernel_min_eig
from stieltjesmp import (
    BadPoint,
    ParameterDegenerate,
    analyze,
    krein_resolvent,
    make_tau,
    moments_of_measure,
    solution_transform,
)
from stieltjesmp.io import encode_matrix
from stieltjesmp.krein import CONDITION_LIMIT, TauParameter
from stieltjesmp.solutions import random_discrete_measure

PARITY_TOL = 1e-13


@pytest.fixture(scope="module")
def n8():
    """``N = 8``, ``m = 9`` with 12 full-rank atoms in (0.1, 4): ``d = 40``,
    ``q = 8``, the shape of the benchmark's transform scans."""
    meas = random_discrete_measure(3, 8, 12, lam_range=(0.1, 4.0), min_sep=0.2)
    a = analyze(moments_of_measure(meas, 9))
    assert a.gamma_weyl.q == 8 and a.gamma_weyl.dim == 40
    return a, meas


def _taus(q):
    """Infinite, constant, rational and (for ``q >= 2``) mixed parameters, and
    the mixed one's raw ideal vectors (rows), from which the reference builds
    its complement."""
    rng = np.random.default_rng(q)
    G = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
    const = -np.eye(q) - 0.1 * (G.conj().T @ G) / q
    docs = {
        "infinite": {"type": "infinite"},
        "constant": {"type": "constant", "matrix": encode_matrix(const)},
        "rational": {
            "type": "rational",
            "tau0": encode_matrix(const),
            "poles": [
                {"p": 1.5, "W": encode_matrix(0.5 * np.eye(q))},
                {"p": 3.1, "W": encode_matrix(0.2 * (G.conj().T @ G) / q)},
            ],
        },
    }
    ideal = None
    if q >= 2:
        ideal = rng.standard_normal((2, q)) + 1j * rng.standard_normal((2, q))
        docs["mixed"] = {
            "type": "mixed",
            "ideal_subspace": [encode_matrix(v)[0] for v in ideal],
            "tau0": encode_matrix(-np.eye(q - 2)),
            "poles": [{"p": 0.8, "W": encode_matrix(np.eye(q - 2))}],
        }
    return {name: make_tau(doc) for name, doc in docs.items()}, ideal


def _points(atoms):
    """``-1``, conjugate pairs, ``x + 0.01i`` across the atoms, large ``|z|``."""
    pairs = [1j, -0.3 + 0.2j, 0.7 + 0.5j, 2.5 + 1e-3j, -4.0 + 3.0j]
    scan = np.linspace(0.0, max(atoms) + 0.5, 41) + 0.01j
    return [-1.0, -2.0, *pairs, *np.conj(pairs), *scan, 1e6j, -1e8, 1e5 + 1e5j]


def _rel(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _problems(two_atom, n8):
    a, meas = n8
    return [("two_atom", two_atom, (1.0, 2.0)), ("n8_m9", a, meas.positions)]


def test_formula_matches_the_reference(two_atom, n8):
    for name, a, atoms in _problems(two_atom, n8):
        gw = a.gamma_weyl
        assert a.rep.vectors is gw.vectors  # the stored coordinates serve
        taus, ideal = _taus(gw.q)
        for kind, tau in taus.items():
            for z in _points(atoms):
                pairs = (
                    (krein_resolvent(gw, tau, z), ref.krein_resolvent(gw, tau, z, ideal)),
                    (
                        solution_transform(gw, tau, a.rep, a.N, z),
                        ref.solution_transform(gw, tau, a.rep, a.N, z, ideal),
                    ),
                )
                for got, want in pairs:
                    err = _rel(got, want)
                    assert err <= PARITY_TOL, (name, kind, z, err)


def test_foreign_representation_matches_the_reference(n8):
    # a copied array, a shorter N and unrelated vectors take the general path
    a, meas = n8
    gw = a.gamma_weyl
    rng = np.random.default_rng(5)
    other = rng.standard_normal(a.rep.vectors.shape) + 1j * rng.standard_normal(
        a.rep.vectors.shape
    )
    reps = [
        (replace(a.rep, vectors=a.rep.vectors.copy()), a.N),
        (a.rep, 3),
        (replace(a.rep, vectors=other), a.N),
        (replace(a.rep, vectors=other), 5),
    ]
    taus, ideal = _taus(gw.q)
    for kind, tau in taus.items():
        for rep, N in reps:
            for z in (1j, -0.5, 1.3 + 0.01j, 1e6j):
                got = solution_transform(gw, tau, rep, N, z)
                assert got.shape == (N, N)
                err = _rel(got, ref.solution_transform(gw, tau, rep, N, z, ideal))
                assert err <= PARITY_TOL, (kind, N, z, err)


def test_mixed_parameter_matches_the_reference_along_a_scan(n8):
    # the inclusion is formed once per parameter and then serves every point;
    # it is an isometry onto the complement of the raw ideal vectors, whose
    # projector the reference forms by its own QR
    a, meas = n8
    gw = a.gamma_weyl
    taus, ideal = _taus(gw.q)
    tau = taus["mixed"]
    assert tau.inclusion(gw.q) is tau.inclusion(gw.q)
    inc, want = tau.inclusion(gw.q), ref.inclusion(tau, gw.q, ideal)
    assert np.abs(inc.conj().T @ inc - np.eye(gw.q - 2)).max() <= 1e-14
    assert np.abs(ideal.conj() @ inc).max() <= 1e-14
    assert np.abs(inc @ inc.conj().T - want @ want.conj().T).max() <= 1e-14
    for z in np.linspace(-1.0, 4.5, 256) + 0.01j:
        got = solution_transform(gw, tau, a.rep, a.N, z)
        err = _rel(got, ref.solution_transform(gw, tau, a.rep, a.N, z, ideal))
        assert err <= PARITY_TOL, (z, err)


@pytest.mark.parametrize("z", [0.0, -0.0, 1e-300, 0.5, 2.0, 1e3])
def test_points_on_the_positive_axis_refused_like_the_reference(two_atom, n8, z):
    for _, a, _ in _problems(two_atom, n8):
        gw = a.gamma_weyl
        taus, ideal = _taus(gw.q)
        for tau in taus.values():
            for lib, reference in (
                (krein_resolvent, lambda g, t, x: ref.krein_resolvent(g, t, x, ideal)),
                (
                    lambda g, t, x: solution_transform(g, t, a.rep, a.N, x),
                    lambda g, t, x: ref.solution_transform(g, t, a.rep, a.N, x, ideal),
                ),
            ):
                for call in (lib, reference):
                    with pytest.raises(BadPoint):
                        call(gw, tau, z)


def _constant(matrix):
    return make_tau({"type": "constant", "matrix": encode_matrix(matrix)})


def test_zero_parameter_block_refused_like_the_reference(two_atom, n8):
    # tau = M(0) at z = -1 makes the block exactly zero, where a bare
    # ``s_max <= LIMIT * s_min`` test would pass
    for _, a, _ in _problems(two_atom, n8):
        gw = a.gamma_weyl
        tau = _constant(gw.M0)
        zero = tau.value(-1.0) + (gw.M(-1.0) - gw.M0)
        assert not zero.any()
        for call in (
            lambda z: krein_resolvent(gw, tau, z),
            lambda z: ref.krein_resolvent(gw, tau, z),
            lambda z: solution_transform(gw, tau, a.rep, a.N, z),
            lambda z: ref.solution_transform(gw, tau, a.rep, a.N, z),
        ):
            with pytest.raises(ParameterDegenerate):
                call(-1.0)


@pytest.mark.parametrize("z", [-0.5, -3.0])
def test_ill_conditioned_parameter_block_refused_like_the_reference(n8, z):
    # K(z) = tau0 + M(z) - M(0) of rank one, plus roundoff, off the base point
    a, _ = n8
    gw = a.gamma_weyl
    u = np.zeros(gw.q)
    u[2] = 1.0
    M = gw.M(z)
    assert np.abs(M - M.conj().T).max() <= 1e-12 * np.abs(M).max()
    tau = _constant(-(M - gw.M0) + np.outer(u, u))
    for call in (
        lambda: krein_resolvent(gw, tau, z),
        lambda: ref.krein_resolvent(gw, tau, z),
        lambda: solution_transform(gw, tau, a.rep, a.N, z),
        lambda: ref.solution_transform(gw, tau, a.rep, a.N, z),
    ):
        with pytest.raises(ParameterDegenerate):
            call()
    # a well-conditioned neighbour passes on both sides, with equal values
    ok = _constant(-(M - gw.M0) - np.eye(gw.q))
    got = solution_transform(gw, ok, a.rep, a.N, z)
    assert _rel(got, ref.solution_transform(gw, ok, a.rep, a.N, z)) <= PARITY_TOL


def test_eigenvalue_just_below_minus_one_is_clipped(two_atom):
    # roundoff may put an eigenvalue of t_mu a hair below -1 (mass at
    # infinity); its square-root scaling is then 0, not NaN
    gw = two_atom.gamma_weyl
    assert (gw.w == -1.0).any()
    low = replace(gw, w=np.where(gw.w == -1.0, np.nextafter(-1.0, -2.0), gw.w))
    taus, ideal = _taus(gw.q)
    for tau in taus.values():
        for z in (1j, -0.5, 1.5 + 0.01j):
            got = krein_resolvent(low, tau, z)
            assert np.isfinite(got).all()
            assert _rel(got, ref.krein_resolvent(low, tau, z, ideal)) <= PARITY_TOL


def test_degenerate_block_without_a_constructor(two_atom):
    # a 1 x 1 block that is exactly zero, built without make_tau
    gw = two_atom.gamma_weyl
    tau = TauParameter(finite_basis=np.eye(1), tau0=np.array(gw.M0), poles=())
    with pytest.raises(ParameterDegenerate):
        krein_resolvent(gw, tau, -1.0)
    with pytest.raises(ParameterDegenerate):
        ref.krein_resolvent(gw, tau, -1.0)


def _probes():
    taus, _ = _taus(3)
    fun = lambda z: np.array([[z / (1.5 * (1.5 - z)), 0.1], [0.1, -1.0 / z]])
    pts = (*DEFAULT_CLASS_POINTS, 3.0 + 0.01j, -2.0 + 1e-3j)
    return [
        (taus["constant"].value, DEFAULT_CLASS_POINTS, 3),
        (lambda z: taus["rational"].value(z) / z, DEFAULT_CLASS_POINTS, 3),
        (taus["rational"].value, pts, 3),
        (taus["mixed"].value, pts, 1),
        (fun, pts, 2),
    ]


def test_class_kernel_is_bit_equal_to_the_block_loop(monkeypatch):
    # the one-broadcast kernel, captured where it is handed to eigvalsh
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda K: seen.append(K.copy()) or eigvalsh(K)
    )
    for fun, pts, dim in _probes():
        pts = [complex(z) for z in pts]
        kernel_min_eig(fun, pts, dim)
        want = ref.kernel(fun, pts, dim)
        assert seen[-1].shape == want.shape
        assert seen[-1].tobytes() == want.tobytes()


def _near_singular(gw, z, c, big=4):
    """Constant parameter whose block at the real point ``z`` is, up to
    roundoff, ``diag(1, .., 1, 1/c, .., 1/c)`` with ``big`` ones: condition
    number ``c``, Frobenius bound ``sqrt(big (q - big)) c``."""
    M = gw.M(z)
    assert np.abs(M - M.conj().T).max() <= 1e-12 * np.abs(M).max()
    D = np.diag([1.0] * big + [1.0 / c] * (gw.q - big))
    return _constant(-(ref.herm(M) - gw.M0) + D)


def _counting(monkeypatch, name):
    calls = []
    fun = getattr(np.linalg, name)
    monkeypatch.setattr(
        np.linalg, name, lambda *a, **k: calls.append(1) or fun(*a, **k)
    )
    return calls


def test_bound_above_half_the_limit_falls_back_to_the_svd(n8, monkeypatch):
    # cond_2 = 0.3 LIMIT passes, but ||K||_F ||K^{-1}||_F = 4 cond_2 does not
    # certify it: the SVD test decides, and accepts
    a, _ = n8
    gw = a.gamma_weyl
    z = -0.5
    tau = _near_singular(gw, z, 0.3 * CONDITION_LIMIT)
    K = tau.value(z) + (gw.M(z) - gw.M0)
    bound = np.linalg.norm(K) * np.linalg.norm(np.linalg.inv(K))
    assert bound > CONDITION_LIMIT / 2 and np.linalg.cond(K) < CONDITION_LIMIT
    calls = _counting(monkeypatch, "svd")
    got = solution_transform(gw, tau, a.rep, a.N, z)
    assert len(calls) == 1
    want = ref.solution_transform(gw, tau, a.rep, a.N, z)
    assert _rel(got, want) <= PARITY_TOL
    assert _rel(krein_resolvent(gw, tau, z), ref.krein_resolvent(gw, tau, z)) <= PARITY_TOL


@pytest.mark.parametrize("big", [1, 4, 7])
@pytest.mark.parametrize("z", [-0.5, -3.0])
def test_near_degenerate_sweep_refused_like_the_reference(n8, z, big):
    # blocks on both sides of the limit, and at it: the same refusals
    a, _ = n8
    gw = a.gamma_weyl
    refused = set()
    for ratio in (0.01, 0.1, 0.3, 0.9, 0.999, 1.0, 1.001, 1.1, 3.0, 1e3):
        tau = _near_singular(gw, z, ratio * CONDITION_LIMIT, big)
        for lib, reference in (
            (
                lambda: solution_transform(gw, tau, a.rep, a.N, z),
                lambda: ref.solution_transform(gw, tau, a.rep, a.N, z),
            ),
            (lambda: krein_resolvent(gw, tau, z), lambda: ref.krein_resolvent(gw, tau, z)),
        ):
            try:
                want = reference()
            except ParameterDegenerate:
                with pytest.raises(ParameterDegenerate):
                    lib()
                refused.add(ratio)
                continue
            assert _rel(lib(), want) <= PARITY_TOL, (ratio, big)
    assert refused - {1.0} == {1.001, 1.1, 3.0, 1e3}


def test_transform_scan_runs_no_svd(n8, monkeypatch):
    # every point of a scan across the atoms is certified by its one inverse:
    # no SVD and no solve, and no inverse for the ideal parameter
    a, meas = n8
    gw = a.gamma_weyl
    zs = np.linspace(min(meas.positions) - 0.1, max(meas.positions) + 0.1, 256) + 0.01j
    taus, _ = _taus(gw.q)  # a mixed parameter's complement is one SVD, in make_tau
    calls = {name: _counting(monkeypatch, name) for name in ("svd", "solve", "inv")}
    for tau in taus.values():
        for z in zs:
            solution_transform(gw, tau, a.rep, a.N, z)
    assert not calls["svd"] and not calls["solve"]
    assert len(calls["inv"]) == len(zs) * sum(not tau.is_ideal for tau in taus.values())


@pytest.mark.parametrize("z", [1e300j, -1e300 + 1j, 1e200 + 1e200j])
def test_extreme_point_certified_without_warnings(two_atom, z):
    # here K(z) is tiny: its squared Frobenius norm underflows and that of
    # its inverse overflows, so the bound is NaN and the SVD test decides
    gw = two_atom.gamma_weyl
    tau = _constant(-np.eye(gw.q))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solution_transform(gw, tau, two_atom.rep, two_atom.N, z)
    want = ref.solution_transform(gw, tau, two_atom.rep, two_atom.N, z)
    assert np.abs(got - want).max() <= PARITY_TOL * np.abs(want).max()  # no squares
