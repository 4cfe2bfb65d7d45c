#!/usr/bin/env python3
"""The composer benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dial-n16 --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``dial-n16``: factorize and compile ``synth <seed>:8:8`` once, then
  ``dial`` + ``estimate`` for the masks eta 0.5 / 0.9 / 0.99 and full.
* ``verify-n6``: compile ``synth <seed>:3:2`` once, then ``dial`` +
  ``verify`` + ``estimate`` for the masks {}, {1}, {2}, {1,2}.
* ``sandwich-n4``: factorize ``synth <seed+k>:2:2`` for k < 4, then
  ``mask_engine.similarity_sandwich`` for the masks {} and {1}.

The CLI is driven in-process through ``composer.cli.main``.  Every output
is checked; a check that fails counts its operation as failed.  With
``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics recorded by :mod:`tracer`.  Lines
before it, starting with ``#``, are a readable summary.  The full result
(and, traced, every span) is written under ``.perfbench_runs/``.
"""

import sys

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"

# factorization thresholds of every workload; tau_eig, tau_svd and
# tau_wedge are 0 so that every ladder is kept
TAU_CHOL = 1e-10
TAU_ARGS = ["--tau-chol", repr(TAU_CHOL), "--tau-svd", "0", "--tau-wedge", "0"]
EPS_BUDGET = 1e-9  # verify --eps-budget
MAX_UNITARITY = 1e-11
EPS_POLY = 1e-9  # similarity sandwich polynomial budget
MIN_ROUNDS = 2  # every mask runs at least twice, so artifacts can be compared

CLI_WORKLOADS = {
    "dial-n16": {
        "shape": "8:8",
        "ell": (16, 448),
        "setups": 3,
        "verify": False,
        "masks": [
            ("eta0.5", ["--eta", "0.5"]),
            ("eta0.9", ["--eta", "0.9"]),
            ("eta0.99", ["--eta", "0.99"]),
            ("full", []),
        ],
    },
    "verify-n6": {
        "shape": "3:2",
        "ell": (6, 2),
        "setups": 7,
        "verify": True,
        "masks": [
            ("none", ["--mask", ""]),
            ("m1", ["--mask", "1"]),
            ("m2", ["--mask", "2"]),
            ("m12", ["--mask", "1,2"]),
        ],
    },
}
SANDWICH = {"geometries": 4, "shape": (2, 2), "ell": (4, 1), "setups": 7,
            "masks": [("none", ()), ("m1", (1,))]}
WORKLOADS = [*CLI_WORKLOADS, "sandwich-n4"]

# functions whose returned dense matrix is an assembled 2^(t+n) encoding
ASSEMBLERS = (
    "oracle.hamiltonian_block_encoding",
    "oracle.channel_block_encoding",
    "oracle.squared_block_gadget",
    "oracle.generator_block_encoding",
)
CALL_COUNTS = ("circuit_ir.fabric_fingerprint", "ladders.schedule_unitary", "jw.jw_ladder_ops")
COUNTS = (
    ("factorization.pool_bytes", "bytes"),
    ("factorization.ell_ham", "count"),
    ("factorization.ell_gen", "count"),
    ("circuit_ir.skeleton_bytes", "bytes"),
    ("circuit_ir.dial_bytes", "bytes"),
    ("oracle.dense_dim_max", "count"),
    ("oracle.assembled_bytes", "bytes"),
    ("oracle.sector_fraction", "ratio"),
    ("qsp.degree", "count"),
    ("mask_engine.headroom", "ratio"),
    ("cli.verify_headroom", "ratio"),
)


def import_composer():
    """Import the package from this checkout's ``src/``, or exit 1."""
    if not (SRC / "composer" / "__init__.py").is_file():
        sys.exit(f"perfbench: no composer sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import composer

    if Path(composer.__file__).resolve().parent != SRC / "composer":
        sys.exit(f"perfbench: imported composer from {composer.__file__}, not {SRC}")


def pct(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(n):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (90, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    return best


class Session:
    """Times operations of one run and counts the ones that fail."""

    def __init__(self):
        self.tracer = None  # a Tracer in a traced run
        self.counts = defaultdict(int)  # computed per-layer counts
        self.sector = None  # (n_so, n_elec) of the workload's instances
        self.samples = defaultdict(list)  # operation -> seconds
        self.cases = defaultdict(list)  # step case (mask, geometry) -> seconds
        self.attempted = 0
        self.failed_ops = set()
        self.failures = []
        self._current = 0

    def timed(self, op, fn, *args):
        """Run one operation under a root span; returns (result, seconds).

        An exception fails the operation and returns ``(None, None)``.
        """
        self.attempted += 1
        self._current = self.attempted
        root = self.tracer.root(f"bench.{op}") if self.tracer else contextlib.nullcontext()
        with root:
            start = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                self.fail(op, f"{type(exc).__name__}: {exc}")
                return None, None
            seconds = time.perf_counter() - start
        return result, seconds

    def cli(self, op, argv):
        """One in-process ``composer`` call; returns its seconds or None."""
        from composer import cli

        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                return cli.main(argv)

        code, seconds = self.timed(op, call)
        if seconds is None:
            return None
        if code != 0:
            self.fail(op, f"exit code {code}: {buf.getvalue().strip()[-300:]}")
            return None
        self.samples[op].append(seconds)
        return seconds

    def step(self, case, seconds):
        self.samples["step"].append(seconds)
        self.cases[case].append(seconds)

    def step_seconds(self):
        """Mean over the step cases of each case's median, so the mix is fixed."""
        if not self.cases:
            return float("nan")
        return statistics.fmean(statistics.median(v) for v in self.cases.values())

    def check(self, ok, op, what):
        """Fail the latest operation unless ``ok``."""
        if not ok:
            self.fail(op, what)
        return ok

    def fail(self, op, message):
        self.failed_ops.add(self._current)
        self.failures.append(f"{op}: {message}")


class Identical:
    """Checks that an artifact has the same bytes every time it is made."""

    def __init__(self):
        self.first = {}

    def __call__(self, key, path):
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        return self.first.setdefault(key, digest) == digest


def round_robin(items, seconds):
    """Yield items in turn for ``seconds``, and each at least MIN_ROUNDS times."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_ROUNDS * len(items) or time.perf_counter() < deadline:
        yield items[i % len(items)]
        i += 1


def check_pools(s, op, ham, gen, ell):
    s.check((ham.ell, gen.ell) == ell, op,
            f"ell_ham, ell_gen = {ham.ell}, {gen.ell}, expected {ell}")
    s.counts["factorization.ell_ham"] = ham.ell
    s.counts["factorization.ell_gen"] = gen.ell
    s.sector = (gen.n_so, gen.n_elec)


def run_cli_workload(s, name, seed, seconds, work):
    """Compile once, then dial (+ verify) + estimate per mask."""
    from composer import diagnostics, factorization
    from composer.circuit_ir import Mask

    cfg = CLI_WORKLOADS[name]
    pool, skel = work / "pool.json", work / "skel.json"
    same = Identical()
    gen = fingerprint = None
    for _ in range(cfg["setups"]):
        t_fact = s.cli("factorize", ["factorize", "--synth", f"{seed}:{cfg['shape']}",
                                     *TAU_ARGS, "--out", str(pool)])
        if t_fact is None:
            continue
        s.check(same("pool", pool), "factorize", "pool artifact differs between set-ups")
        t_comp = s.cli("compile", ["compile", "--pool", str(pool), "--out", str(skel)])
        if t_comp is None:
            continue
        s.check(same("skel", skel), "compile", "skeleton artifact differs between set-ups")
        s.samples["setup"].append(t_fact + t_comp)
        if gen is None:
            ham, gen = factorization.pools_from_json(pool.read_text())
            check_pools(s, "compile", ham, gen, cfg["ell"])
            fingerprint = json.loads(skel.read_text())["fingerprint"]
            s.counts["factorization.pool_bytes"] = pool.stat().st_size
            s.counts["circuit_ir.skeleton_bytes"] = skel.stat().st_size
    if gen is None:
        return

    for mask, mask_args in round_robin(cfg["masks"], seconds):
        dial_path = work / f"dial-{mask}.json"
        est_path = work / f"est-{mask}.json"
        t_dial = s.cli("dial", ["dial", "--skel", str(skel), "--pool", str(pool),
                                *mask_args, "--mask-id", mask, "--out", str(dial_path)])
        if t_dial is None:
            continue
        sheet = json.loads(dial_path.read_text())
        s.check(sheet["skeleton_fingerprint"] == fingerprint, "dial",
                f"{mask}: dial fingerprint differs from the skeleton's")
        s.check(same(dial_path.name, dial_path), "dial", f"{mask}: dial sheet differs between rounds")
        if mask.startswith("eta"):
            eta = float(mask[3:])
            got = diagnostics.mask_coverage(gen, Mask.of(mask, sheet["mask_indices"]))
            s.check(got >= eta, "dial", f"{mask}: coverage {got!r} below {eta}")
        s.counts["circuit_ir.dial_bytes"] = max(
            s.counts["circuit_ir.dial_bytes"], dial_path.stat().st_size)
        step = t_dial
        if cfg["verify"]:
            t_ver = verify_step(s, skel, dial_path, work / f"report-{mask}.json", gen)
            if t_ver is None:
                continue
            step += t_ver
        t_est = s.cli("estimate", ["estimate", "--skel", str(skel), "--dial", str(dial_path),
                                   "--out", str(est_path)])
        if t_est is None:
            continue
        s.check(same(est_path.name, est_path), "estimate", f"{mask}: estimate differs between rounds")
        s.step(mask, step + t_est)


def verify_step(s, skel, dial_path, report_path, gen):
    t_ver = s.cli("verify", ["verify", "--skel", str(skel), "--dial", str(dial_path),
                             "--eps-budget", repr(EPS_BUDGET), "--out", str(report_path)])
    if t_ver is None:
        return None
    rep = json.loads(report_path.read_text())
    ok = s.check(rep["passed"] is True and rep["measured_error"] <= EPS_BUDGET
                 and rep["unitarity"] <= MAX_UNITARITY, "verify", f"report {rep}")
    s.counts["cli.verify_headroom"] = max(s.counts["cli.verify_headroom"],
                                          rep["measured_error"] / EPS_BUDGET)
    return t_ver if ok else None


def run_sandwich(s, seed, seconds):
    """Factorize several geometries, then sandwich each under two masks."""
    from composer import factorization, integrals, jw, mask_engine
    from composer.circuit_ir import Mask

    cfg = SANDWICH
    n_spatial, n_elec = cfg["shape"]

    def factorize_all():
        pools = []
        for k in range(cfg["geometries"]):
            ints = integrals.synth_instance(seed + k, n_spatial, n_elec)
            ham = factorization.build_hamiltonian_pool(ints, TAU_CHOL, 0.0)
            t2 = factorization.mp2_amplitudes(ints)
            gen = factorization.nested_svd_t2(t2, 0.0, 0.0)
            pools.append((ham, gen))
        return pools

    first = pools = None
    for _ in range(cfg["setups"]):
        pools, t_setup = s.timed("factorize", factorize_all)
        if pools is None:
            continue
        docs = [factorization.pools_to_json(ham, gen) for ham, gen in pools]
        if first is None:
            first = docs
            for ham, gen in pools:
                check_pools(s, "factorize", ham, gen, cfg["ell"])
            s.counts["factorization.pool_bytes"] = len(docs[0])
        s.check(docs == first, "factorize", "pools differ between set-ups")
        s.samples["setup"].append(t_setup)
    if first is None:
        return

    n = pools[0][0].n_so
    model_space = [int(i) for i in jw.sector_indices(n, n_elec)]
    cases = [(k, ham, gen, Mask.of(label, indices))
             for k, (ham, gen) in enumerate(pools) for label, indices in cfg["masks"]]
    for k, ham, gen, mask in round_robin(cases, seconds):
        out, t = s.timed("sandwich", mask_engine.similarity_sandwich,
                         ham, gen, mask, model_space, EPS_POLY)
        if out is None:
            continue
        rep = out[0]
        allowance = 1.1 * rep.budget_total + 1e-13  # as similarity_sandwich checks it
        s.counts["mask_engine.headroom"] = max(
            s.counts["mask_engine.headroom"], rep.measured_error / allowance)
        if s.check(rep.within_budget, "sandwich", f"geometry {k} {mask.label}: {rep.to_json()}"):
            s.samples["sandwich"].append(t)
            s.step((k, mask.label), t)


def observers(s):
    """Counts taken from the results of wrapped calls in a traced run."""
    counts = s.counts

    def dense(result):
        mat = result[0] if isinstance(result, tuple) else result
        if isinstance(mat, np.ndarray) and mat.ndim == 2:
            counts["oracle.dense_dim_max"] = max(counts["oracle.dense_dim_max"], mat.shape[0])
            counts["oracle.assembled_bytes"] += mat.nbytes
            return mat.shape[0]
        return None

    def executed(result):
        dim = dense(result)
        if dim:  # verify runs the circuit on all 2^(t+n) columns, C(n, N) of them useful
            n, n_elec = s.sector
            counts["oracle.sector_fraction"] = math.comb(n, n_elec) / dim

    def degree(result):
        counts["qsp.degree"] = max(counts["qsp.degree"], result)

    out = {name: dense for name in ASSEMBLERS}
    out["circuit_ir.execute_generator_encoding"] = executed
    out["qsp.degree_for"] = degree
    return out


def machine_record(seed):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def git_commit():
    """Commit of the checkout, read from ``.git`` (None outside a git tree)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def layer_metrics(s, tracer):
    """Per-layer metrics: self time per wrapped function, counts, coverage."""
    from tracer import LAYER_FUNCTIONS, MODULES

    times = tracer.self_times()
    out = {}
    for name in LAYER_FUNCTIONS:
        self_s, calls, _total = times.get(name, (0.0, 0, 0.0))
        out[f"{name}.s"] = (self_s, "s")
        if name in CALL_COUNTS:
            out[f"{name}.calls"] = (calls, "count")
    for module in MODULES:
        out[f"{module}.errors"] = (tracer.errors[module], "count")
    for key, unit in COUNTS:
        out[key] = (s.counts[key], unit)
    out["traced.setup_s"] = (median(s.samples["setup"]), "s")
    out["traced.step_s"] = (s.step_seconds(), "s")
    for op in ("factorize", "compile", "dial", "verify", "estimate", "sandwich"):
        _self, _calls, total = times.get(f"bench.{op}", (0.0, 0, 0.0))
        out[f"coverage.{op}"] = ((total - _self) / total if total else 0.0, "ratio")
    return out


def median(values):
    return statistics.median(values) if values else float("nan")


def summary_lines(s, rss_mb):
    lines = []
    for op in ("setup", "step", "factorize", "compile", "dial", "verify", "estimate", "sandwich"):
        vals = s.samples.get(op)
        if not vals:
            continue
        p = tail_percentile(len(vals))
        tail = f"  p{p:g} {pct(vals, p):.6f} s" if p else ""
        head = f"median {median(vals):.6f} s"
        if op == "step":
            head = f"{s.step_seconds():.6f} s (mean of {len(s.cases)} per-case medians)"
        lines.append(f"{op}_s  {head}  n={len(vals)}{tail}")
    lines.append(f"peak_rss_mb  {rss_mb:.1f} MB")
    frac = len(s.failed_ops) / max(s.attempted, 1)
    lines.append(f"failed_frac  {frac:g}  ({len(s.failed_ops)} of {s.attempted} operations)")
    for failure in s.failures[:20]:
        lines.append(f"FAILED {failure}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_composer()
    declared = declared_metrics(args.trace)
    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    s = Session()
    tracer = s.tracer = Tracer(observers=observers(s)) if args.trace else None

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with tracer if tracer else contextlib.nullcontext():
            if args.workload == "sandwich-n4":
                run_sandwich(s, args.seed, args.seconds)
            else:
                run_cli_workload(s, args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        metrics = layer_metrics(s, tracer)
    else:
        metrics = {
            "setup_s": (median(s.samples["setup"]), "s"),
            "step_s": (s.step_seconds(), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    if {k: u for k, (_v, u) in metrics.items()} != declared:
        sys.exit(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json")
    correct = not s.failed_ops and all(math.isfinite(v) for v, _u in metrics.values())
    # a metric that could not be measured is null; the run is then not correct
    reported = {k: {"value": v if math.isfinite(v) else None, "unit": u}
                for k, (v, u) in metrics.items()}
    machine = machine_record(args.seed)
    lines = summary_lines(s, rss_mb)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "summary": lines,
        "samples": dict(s.samples), "failures": s.failures, "metrics": reported,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        tracer.dump(OUT / f"spans-{tag}.json")
    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for line in lines:
        print(f"# {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": s.attempted,
        "failed": len(s.failed_ops),
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
