"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Criteria 1 and 2 share a corpus of 50 random circulation graphs; criteria 5
and 6 share one exhaustive subset sweep over the built-in corpus. Stated
runtime budgets are asserted where they exist.
"""

import hashlib
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest
from util import spectra_mismatch

from dirlap import (
    SplitMix64,
    assemble,
    build_filtration,
    cheeger_exact,
    cheeger_heuristic,
    connectivity,
    corpus,
    dirichlet,
    eig,
    gen_cycle,
    gen_layered_heavy,
    gen_random_circulation,
    infinity_profile,
    kernel_dimension,
    nu,
    numerical_range_boundary,
    operator_norm,
    to_euclidean,
    verify_cheeger_sandwich,
    verify_dirichlet_bounds,
    verify_fujiwara,
    verify_green,
    verify_kyfan,
)


@contextmanager
def verdict(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({label}): FAIL")
        raise
    print(f"criterion {number:02d} ({label}): PASS")


@pytest.fixture(scope="module")
def circulations():
    """50 balanced random circulations with n spanning 4..30."""
    graphs = []
    for i in range(50):
        n = 4 + (i * 26) // 49
        graphs.append((f"circ_n{n}_s{100 + i}", gen_random_circulation(n, 3 + i % 4, seed=100 + i)))
    return graphs


@pytest.fixture(scope="module")
def subset_sweep():
    """Shared exhaustive sweep for criteria 5 and 6: every subset of size
    <= 8 of every corpus graph, with the elapsed wall time."""
    start = time.perf_counter()
    sandwich = []
    fujiwara = []
    for name, g in corpus():
        if g.n > 10:
            continue
        for size in range(1, min(8, g.n) + 1):
            for omega in combinations(range(g.n), size):
                sandwich.append(verify_cheeger_sandwich(g, omega, name))
                fujiwara.append(verify_fujiwara(g, omega, name))
    elapsed = time.perf_counter() - start
    return sandwich, fujiwara, elapsed


def test_criterion_01_green_identity(circulations):
    with verdict(1, "summation-by-parts identity on 50 circulations"):
        start = time.perf_counter()
        for name, g in circulations:
            report = verify_green(g, name)
            assert report.passed, (name, report.lhs)
            assert report.lhs[0] <= 1e-9, (name, report.lhs)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_02_norm_disc_kernel(circulations):
    with verdict(2, "norm <= 2, numerical range in D(1,1), simple kernel"):
        for name, g in circulations:
            op = assemble(g, "normalized_delta")
            assert operator_norm(op) <= 2.0 + 1e-8, name
            boundary = numerical_range_boundary(op, 360)
            assert boundary.points.shape == (360,)
            assert float(np.max(np.abs(boundary.points - 1.0))) <= 1.0 + 1e-8, name
            connected, _ = connectivity(g)
            if connected:
                assert kernel_dimension(op) == 1, name


def test_criterion_03_closed_form_cycle():
    with verdict(3, "cycle spectra match the closed form"):
        for n in (3, 5, 8, 16):
            got = eig(assemble(gen_cycle(n, 1.0), "delta").matrix)
            expected = 1.0 - np.exp(2j * np.pi * np.arange(n) / n)
            assert spectra_mismatch(got, expected) <= 1e-8, n
        norm = operator_norm(assemble(gen_cycle(3, 1.0), "normalized_delta"))
        assert abs(norm - np.sqrt(3.0)) <= 1e-8


def test_criterion_04_dirichlet_bounds_exhaustive():
    with verdict(4, "Dirichlet eigenvalue bounds, exhaustive subsets"):
        for name, g in corpus():
            if g.n > 9:
                continue
            for size in range(1, g.n):
                for omega in combinations(range(g.n), size):
                    report = verify_dirichlet_bounds(g, omega, name)
                    assert report.passed, (name, omega, report.margin)
        # hand-checked instance: triangle with one vertex grounded
        op = dirichlet(assemble(gen_cycle(3), "normalized_delta"), [0, 1])
        lam = eig(op.matrix)
        assert abs(lam[0].real - 1.0) <= 1e-10
        a = to_euclidean(op)
        sym = np.sort(np.linalg.eigvalsh(0.5 * (a + a.conj().T)))
        assert abs(sym[0] - 0.5) <= 1e-10
        assert abs(sym[-1] - 1.5) <= 1e-10
        assert abs(float(sym.sum()) - 2.0) <= 1e-10


def test_criterion_05_cheeger_sandwich(subset_sweep):
    sandwich, _, elapsed = subset_sweep
    with verdict(5, "isoperimetric sandwich, exhaustive subsets"):
        for report in sandwich:
            assert report.margin >= -1e-8, (report.instance, report.margin)
            assert report.passed, report.instance
        # tight instance: the bound is attained with value 1/2
        g = gen_cycle(3)
        nu_t = nu(dirichlet(assemble(g, "normalized_delta"), [0, 1]))
        ht = cheeger_exact(g, [0, 1], "beta_plus").value
        assert abs(nu_t - 0.5) <= 1e-9
        assert abs(0.5 * ht - 0.5) <= 1e-9
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s, budget 60s"


def test_criterion_06_fujiwara_envelope(subset_sweep):
    _, fujiwara, _ = subset_sweep
    with verdict(6, "numerical range envelope and interior chain"):
        for report in fujiwara:
            assert report.margin >= -1e-8, (report.instance, report.margin)
            assert report.passed, report.instance


def test_criterion_07_ky_fan():
    with verdict(7, "partial-sum majorization on 500 random matrices"):
        rng = SplitMix64(0x5EED)
        for trial in range(500):
            n = 2 + trial % 9
            matrix = rng.complex_vector(n * n).reshape(n, n)
            report = verify_kyfan(matrix, f"random{trial}")
            assert report.margin >= -1e-8, (trial, report.margin)
            assert report.passed, trial


def test_criterion_08_heuristic_quality():
    with verdict(8, "sweep-cut heuristic vs exact enumeration"):
        total = 0
        equal = 0
        for name, g in corpus():
            subsets = [
                omega
                for size in range(1, min(4, g.n) + 1)
                for omega in combinations(range(g.n), size)
            ]
            subsets.append(tuple(range(g.n)))
            for normalization in ("measure", "beta_plus"):
                for omega in subsets:
                    exact = cheeger_exact(g, omega, normalization)
                    heur = cheeger_heuristic(g, omega, normalization)
                    assert heur.value >= exact.value - 1e-12, (name, omega)
                    total += 1
                    if abs(heur.value - exact.value) <= 1e-9 * max(1.0, exact.value):
                        equal += 1
        assert total > 0
        rate = equal / total
        assert rate >= 0.80, f"heuristic matched exact on {rate:.1%} of {total} instances"


def test_criterion_09_heavy_end_trend():
    with verdict(9, "essential-spectrum trend on a heavy-end family"):
        start = time.perf_counter()
        g = gen_layered_heavy(6, 4, gamma=2.0)
        profile = infinity_profile(g, build_filtration(g, 0))
        nus = profile.sequence("nu_dirichlet")
        assert len(nus) >= 2
        for a, b in zip(nus, nus[1:]):
            assert b >= a - 1e-12, nus
        assert nus[-1] >= 2.0 * nus[0], nus
        for row in profile.levels:
            assert row.ess_lower_bound <= row.nu_dirichlet + 1e-8, row
        assert profile.heavy_end
        flat = gen_layered_heavy(6, 4, gamma=1.0)
        flat_profile = infinity_profile(flat, build_filtration(flat, 0))
        assert not flat_profile.heavy_end
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_10_deterministic_verify(tmp_path):
    with verdict(10, "byte-identical corpus verification"):
        outputs = []
        for run in range(2):
            out = tmp_path / f"reports_{run}.json"
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "dirlap",
                    "verify",
                    "--family",
                    "corpus",
                    "--out",
                    str(out),
                ],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 1000
        # Recorded with Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31, with 1
        # and with 2 BLAS threads; another BLAS or numpy build may round
        # differently and change these bytes without any change to dirlap.
        assert len(outputs[0]) == 2_219_320
        assert hashlib.sha256(outputs[0]).hexdigest() == (
            "79349a14d1b775f6fa5a55f7678e1f4529ceafb04bb44eaec8aa4f6a3d1955a6"
        )
