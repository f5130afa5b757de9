"""snsim benchmark: one closed-loop client per workload, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload matelem --seed 1 --seconds 20 --trace 0

A run sets up repeatedly from a cold program cache and reports the
median set-up time. It then repeats whole passes over the
workload's ops, each op started when the previous one returns, until
`--seconds` have elapsed, and checks every output against the
benchmark's own reference after the timed window. With --trace 0 the
last line of stdout carries the end-to-end metrics of BENCHMARK.json;
with --trace 1 one more pass runs traced and the line carries the
per-layer metrics. The line before it records the environment, the
per-kind latency medians and any failures; result and trace files go
to .perfbench_out/.
"""

import os

# pin BLAS to one thread before numpy is imported
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
# set up at least 3 times and until 1 s has gone, so that set-ups of a
# few ms still give a steady median
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0


def load_snsim():
    """Import snsim from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "snsim", "__init__.py")):
        sys.exit(f"error: no snsim package under {SRC}")
    sys.path.insert(0, SRC)
    import snsim

    if os.path.dirname(os.path.dirname(os.path.abspath(snsim.__file__))) != SRC:
        sys.exit(f"error: imported snsim from {snsim.__file__}, not {SRC}")
    return snsim


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "pins": {var: os.environ.get(var) for var in BLAS_PINS},
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(ops, seconds: float, tracer=None):
    """Whole passes over ops until `seconds` have elapsed (at least one).

    Returns [(op, latency_s, output, error)] and the pass durations.
    """
    records, passes = [], []
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for op in ops:
            if op.prepare is not None:
                op.prepare()
            if tracer is not None:
                tracer.op += 1
            t0 = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a failed op is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            records.append((op, time.perf_counter() - t0, out, error))
        passes.append(time.perf_counter() - p0)
        if time.perf_counter() - start >= seconds:
            return records, passes


def check(records) -> list[str]:
    failures = []
    for op, _, out, error in records:
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{op.kind}: {error}")
    return failures


def kind_medians(records) -> dict:
    by_kind: dict = {}
    for op, lat, _, _ in records:
        by_kind.setdefault(op.kind, []).append(lat)
    return {kind: (statistics.median(lats), len(lats)) for kind, lats in sorted(by_kind.items())}


def op_latency_gm(records, n_ops: int) -> float:
    """Geometric mean over a pass's ops of each op's median latency.

    Every op counts once, whatever its cost, so no op kind's share of
    the ops decides which kind the figure reports, as it does for the
    median of a mix of kinds.
    """
    by_op: list[list[float]] = [[] for _ in range(n_ops)]
    for i, (_, lat, _, _) in enumerate(records):
        by_op[i % n_ops].append(lat)
    return statistics.geometric_mean([statistics.median(lats) for lats in by_op])


def install_layers(tracer) -> None:
    """Wrap each layer's public functions; hooks turn calls into counts."""
    # by module path: the package re-exports names such as `yor` that
    # shadow its submodules
    m = types.SimpleNamespace(**{
        name: importlib.import_module(f"snsim.{name}")
        for name in ("cli", "group_algebra", "lcu", "pauli_expand", "permutation",
                     "quditsim", "verify", "yor")
    })

    basis_info = m.quditsim.young_basis.cache_info

    def basis_built(counts, args, result, hits_before):
        if basis_info().hits == hits_before:
            counts["quditsim.young_basis.builds"] += 1
            counts["quditsim.young_basis.vectors"] += len(result)

    def dense_bytes(counts, args, result, _):
        counts["group_algebra.pi_tilde_dense.bytes"] += (args["d"] ** args["f"].n) ** 2 * 16

    def lcu_report(counts, args, result, _):
        report = result[1]
        counts["lcu.segments"] += report.M
        counts["lcu.ham_applications"] += 3 * report.M * report.K
        counts["lcu.swap_count"] += report.actual

    def segment_terms(counts, args, seg, _):
        f, shift = args["f"], args.get("shift", 0.0)
        ident = tuple(range(1, f.n + 1))
        c_e = sum((c for p, c in f.terms if p.images == ident), 0j)
        supp = f.term_count - (c_e != 0) + (c_e + shift != 0)
        counts["lcu.build_segment.terms"] += len(seg.terms)
        counts["lcu.build_segment.products"] += sum(supp**k for k in range(args["taylor_k"] + 1))

    def pauli_report(counts, args, result, _):
        counts["pauli_expand.pauli_ops"] += result[1].actual

    def pauli_terms(counts, args, result, _):
        counts["pauli_expand.pauli_terms"] += result.term_count

    def fft_ops(counts, args, result, _):
        counts["group_algebra.fft_ops"] += result.ops

    def naive_ops(counts, args, result, _):
        counts["group_algebra.naive_ops"] += result.ops

    spans = [
        (m.quditsim, "young_basis", basis_built, lambda a, k: basis_info().hits),
        (m.quditsim, "exact_matrix_element", None, None),
        (m.group_algebra, "pi_tilde_dense", dense_bytes, None),
        (m.lcu, "matrix_element", lcu_report, None),
        (m.lcu, "plan", None, None),
        (m.lcu, "build_segment", segment_terms, None),
        (m.lcu, "run_segment", None, None),
        (m.pauli_expand, "matrix_element_pauli", pauli_report, None),
        (m.pauli_expand, "element_to_pauli", pauli_terms, None),
        (m.group_algebra, "fourier_fft", fft_ops, None),
        (m.group_algebra, "fourier_inverse", None, None),
        (m.group_algebra, "fourier_naive", naive_ops, None),
        (m.verify, "run_suite", None, None),
        (m.cli, "main", None, None),
    ]
    for module, attr, hook, pre in spans:
        tracer.install(module, attr, f"{module.__name__.split('.')[-1]}.{attr}", hook=hook, pre=pre)
    for module, attr in ((m.permutation, "compose"), (m.pauli_expand, "string_index_phase"),
                         (m.yor, "apply_generator")):
        tracer.install(module, attr, f"{module.__name__.split('.')[-1]}.{attr}", mode="count")


def layer_values(names, tracer, medians, overhead) -> dict:
    busy, own, counts = tracer.busy(), tracer.self_time(), tracer.counts
    built = counts["quditsim.young_basis.vectors"]
    products = counts["lcu.build_segment.products"]
    derived = {
        "trace.overhead_frac": overhead,
        # a matelem request reads two vectors, u and v, of each basis built
        "quditsim.young_basis.used_ratio":
            2 * counts["quditsim.young_basis.builds"] / built if built else 0.0,
        "lcu.build_segment.merge_ratio":
            counts["lcu.build_segment.terms"] / products if products else 0.0,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith("_p50_s"):
            out[name] = medians.get(name[: -len("_p50_s")], (0.0,))[0]
        elif name.endswith(".busy_s"):
            out[name] = busy.get(name[: -len(".busy_s")], 0.0)
        elif name.endswith(".self_s"):
            out[name] = own.get(name[: -len(".self_s")], 0.0)
        else:
            out[name] = counts[name]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    load_snsim()
    import tracing
    import workloads

    if args.workload not in workloads.SETUPS:
        parser.error(f"unknown workload {args.workload!r}")
    workdir = os.path.join(OUT, f"{args.workload}-s{args.seed}")
    os.makedirs(workdir, exist_ok=True)

    setup_times = []
    while not setup_times or (not args.trace and (
            len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S)):
        workloads.clear_caches()
        t0 = time.perf_counter()
        ops = workloads.SETUPS[args.workload](args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)

    records, passes = run_passes(ops, args.seconds)
    window = sum(passes)
    rss = peak_rss_mb()
    traced = []
    if args.trace:
        tracer = tracing.Tracer()
        install_layers(tracer)
        try:
            traced, traced_passes = run_passes(ops, 0.0, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json"))

    timed_failures = check(records)
    failures = timed_failures + check(traced)
    attempted = len(records) + len(traced)
    latencies = [lat for _, lat, _, _ in records]
    medians = kind_medians(records)
    detail = {
        "workload": args.workload,
        "env": environment(args.seed),
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "timed_ops": len(records),
        "passes": len(passes),
        "setups": len(setup_times),
        "kind_p50_s": {kind: {"value": v, "samples": c} for kind, (v, c) in medians.items()},
        "failures": failures[:10],
    }
    detail["latency_p50_s"] = statistics.median(latencies)
    if len(latencies) >= 100:
        detail["latency_p90_s"] = statistics.quantiles(latencies, n=10)[8]

    if args.trace:
        overhead = traced_passes[0] / statistics.median(passes) - 1.0
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layer_values(units, tracer, medians, overhead)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": (len(records) - len(timed_failures)) / window,
            "latency_gm_s": op_latency_gm(records, len(ops)),
            "peak_rss_mb": rss,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result,
                   "latencies_s": [[op.kind, lat] for op, lat, _, _ in records]}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
