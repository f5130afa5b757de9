"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py

The last two start `run.py` as a subprocess: traced runs of every
workload, twice per seed (about two minutes), and a run in a directory
that holds only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import run  # first: it pins BLAS threads before numpy loads

run.load_snsim()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from snsim import group_algebra, pauli_expand, quditsim  # noqa: E402
from snsim.permutation import Permutation  # noqa: E402


def _spec():
    return run.load_spec()


def _bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_apply_perm_matches_snsim_convention():
    rng = np.random.default_rng(0)
    d, n = 3, 4
    amps = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    for images in [(2, 3, 1, 4), (4, 1, 3, 2), (1, 2, 4, 3)]:
        ours = reference.apply_perm(amps.reshape((d,) * n), images).reshape(-1)
        theirs = quditsim.apply_permutation(quditsim.Statevector(d, n, amps), Permutation(images))
        assert np.array_equal(ours, theirs.amplitudes)


def test_reference_evolution_matches_dense_oracle():
    rng = np.random.default_rng(1)
    n, d, t = 5, 2, 2.5
    element = workloads.k_local_element(rng, n, 5, norm=2.0)
    u, v = workloads.random_state(rng, d, n), workloads.random_state(rng, d, n)
    ours = np.vdot(u, reference.evolve(element, d, n, t, v))
    oracle = quditsim.exact_matrix_element(quditsim.Statevector(d, n, u), quditsim.Statevector(d, n, v),
                                           workloads.to_snsim(n, element), t)
    assert abs(ours - oracle) < 1e-12


def test_pauli_one_norm_matches_expansion():
    rng = np.random.default_rng(2)
    element = workloads.k_local_element(rng, 9, 8, norm=1.0)
    g = pauli_expand.element_to_pauli(workloads.to_snsim(9, element))
    assert reference.pauli_one_norm(9, element) == pytest.approx(g.one_norm, rel=1e-12)


def test_k_local_element_is_seeded_hermitian_and_spread():
    a = workloads.k_local_element(workloads.rng_for(7, "x"), 12, 8, norm=1.5)
    b = workloads.k_local_element(workloads.rng_for(7, "x"), 12, 8, norm=1.5)
    assert a == b
    f = workloads.to_snsim(12, a)
    assert f.is_hermitian()
    assert f.locality <= 3 < f.span
    assert math.isclose(f.one_norm, 1.5)


def test_fourier_identities_catch_a_wrong_block():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(120) + 1j * rng.standard_normal(120)
    out = group_algebra.fourier_fft(values, 5)
    assert reference.fourier_identities_error(5, values, out.blocks) < 1e-12
    shape = next(s for s in out.blocks if s.parts == (3, 2))
    out.blocks[shape] = out.blocks[shape] * 1.01
    assert reference.fourier_identities_error(5, values, out.blocks) > 1e-6


def test_traced_counts_repeat_for_a_seed():
    """Two traced runs with one seed give identical counts, and every
    per-layer metric is nonzero on some workload."""
    count_units = {"count", "B"}
    names = [m["name"] for m in _spec()["per_layer"]]
    seen_nonzero = set()
    for workload in (w["name"] for w in _spec()["workloads"]):
        results = []
        for _ in range(2):
            proc = _bench(run.ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                          "--trace", "1")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0
            assert sorted(result["metrics"]) == sorted(names)
            results.append(result["metrics"])
        for name, metric in results[0].items():
            if metric["unit"] in count_units:
                assert metric["value"] == results[1][name]["value"], (workload, name)
            if metric["value"]:
                seen_nonzero.add(name)
    assert seen_nonzero == set(names)


def test_refuses_to_run_without_the_program():
    bare = os.path.join(run.OUT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, "--workload", "evolve", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
