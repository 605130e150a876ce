"""shapelift benchmark: one workload per process, single-threaded.

    python3 bench/run.py --workload voxel-compare --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  Set-up (``generate_dataset``) and the workload body
alternate, each body reading the dataset of the set-up just before it, at
least twice each and then while the next step should end within
``--seconds``; medians are reported.  ``--trace 1`` instead runs set-up and
body once untraced and once with every layer's public functions wrapped,
and reports per-layer metrics.

The datasets always come from the config's ``base_seed``, so every run is
checked against the committed reference RMSEs; ``--seed`` names the run.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the metric names and units
come from ``BENCHMARK.json``.  A human-readable summary goes to standard
error and the full record (environment, samples, checks, spans) to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

import os

# Pin BLAS threads before numpy is imported anywhere in this process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import logging
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"

MIN_REPS = 2
# Relative tolerance on the committed RMSEs: the precision of the report table.
RMSE_RTOL = 1e-6
INTERPOLATION_RMSE = 1e-8

REFERENCE_RMSE = {
    "voxel": {"lowdim": 0.12079554974887742, "direct": 0.24713508180558222,
              "mlp": 0.11458770573649611},
    "cloud": {"lowdim": 0.14516247219315906, "direct": 0.3405722876260374,
              "mlp": 0.11154853965766634},
}
REFERENCE_K = {"voxel": (60, 299), "cloud": (60, 13)}

STAGES = (("pretrain", None), ("fit", "lowdim"), ("eval", "lowdim"),
          ("fit", "direct"), ("eval", "direct"))


# Traced spans that only some workloads produce.
VOXEL_SPANS = ("shapes.generate_voxel_shape", "shapes.save_voxr", "shapes.load_voxr")
CLOUD_SPANS = ("shapes.generate_point_shape", "shapes.save_cloud", "shapes.load_cloud")
COMPARE_SPANS = ("mapping.mlp_train", "mapping.mlp_gradients", "mapping.mlp_forward",
                 "pipeline.fit_mapping.mlp", "pipeline.compare_methods")
STAGED_SPANS = ("mapping.save_map", "mapping.load_map", "subspace.save_ssm",
                "subspace.load_ssm", "cli.main.pretrain", "cli.main.fit", "cli.main.eval")


@dataclass(frozen=True)
class Workload:
    config: str
    family: str
    staged: bool
    never_called: tuple  # span names this workload has no reason to produce

    @property
    def methods(self) -> tuple:
        return ("lowdim", "direct") if self.staged else ("lowdim", "direct", "mlp")


WORKLOADS = {
    "voxel-compare": Workload("reference.cfg", "voxel", False, CLOUD_SPANS + STAGED_SPANS),
    "cloud-compare": Workload("reference_cloud.cfg", "cloud", False, VOXEL_SPANS + STAGED_SPANS),
    "voxel-staged": Workload("reference.cfg", "voxel", True, CLOUD_SPANS + COMPARE_SPANS),
}


@dataclass
class Outcome:
    """What one workload body produced, read back from its output files."""

    test: dict
    k: tuple
    train: dict = field(default_factory=dict)
    exit_codes: list = field(default_factory=list)
    sha256: dict = field(default_factory=dict)


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_shapelift():
    src = ROOT / "src"
    if not (src / "shapelift" / "__init__.py").is_file():
        fail(f"no shapelift sources under {src}")
    sys.path.insert(0, str(src))
    import shapelift
    from shapelift import cli, config, linalg, mapping, pipeline, render, shapes, subspace
    if Path(shapelift.__file__).resolve().parent != (src / "shapelift").resolve():
        fail(f"imported shapelift from {shapelift.__file__}, not from {src}")
    logging.getLogger("shapelift").setLevel(logging.ERROR)
    return argparse.Namespace(cli=cli, config=config, linalg=linalg, mapping=mapping,
                              pipeline=pipeline, render=render, shapes=shapes,
                              subspace=subspace)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def settle():
    """Before a timed section: collect garbage and flush earlier writes to disk."""
    gc.collect()
    os.sync()


# ---------------------------------------------------------------- workloads

def run_body(sl, wl: Workload, cfg: Path, data: Path, out: Path):
    """The timed workload body; returns what ``read_outcome`` needs."""
    if wl.staged:
        codes = []
        for command, method in STAGES:
            argv = [command, "--config", str(cfg), "--data", str(data), "--out", str(out)]
            if method:
                argv += ["--method", method]
            codes.append(sl.cli.main(argv))
        return codes
    result = sl.pipeline.compare_methods(sl.config.load_experiment(str(cfg)), data, threads=1)
    sl.pipeline.write_comparison_csv(result, out / "compare.csv")
    return result


def read_outcome(wl: Workload, raw, out: Path) -> Outcome:
    if not wl.staged:
        return Outcome(test={r.method: r.test_rmse for r in raw.rows},
                       train={r.method: r.train_rmse for r in raw.rows},
                       k=(raw.k_2d, raw.k_3d),
                       sha256={"compare.csv": sha256(out / "compare.csv")})
    test, digests = {}, {}
    for method in ("lowdim", "direct"):
        path = out / f"eval_{method}.csv"
        if path.exists():
            last = path.read_text(encoding="utf-8").splitlines()[-1].split(",")
            if last[0] == "average":
                test[method] = float(last[1])
            digests[path.name] = sha256(path)
    k = []
    for name in ("image_model.ssm", "shape_model.ssm"):
        if (out / name).exists():
            with open(out / name, "rb") as fh:
                k.append(int(json.loads(fh.readline())["k"]))
    return Outcome(test=test, k=tuple(k), exit_codes=list(raw), sha256=digests)


def check(wl: Workload, outcome: Outcome) -> list:
    """Output checks; returns the failures as readable strings."""
    problems = []
    reference = REFERENCE_RMSE[wl.family]
    test = outcome.test
    for method in wl.methods:
        if method not in test:
            problems.append(f"no test RMSE for {method}")
        elif not math.isclose(test[method], reference[method], rel_tol=RMSE_RTOL):
            problems.append(f"{method} test RMSE {test[method]!r} differs from the "
                            f"reference {reference[method]!r}")
    if outcome.k != REFERENCE_K[wl.family]:
        problems.append(f"k_2d/k_3d {outcome.k} != {REFERENCE_K[wl.family]}")
    if all(m in test for m in wl.methods):
        if not test["lowdim"] < test["direct"]:
            problems.append("ordering lowdim < direct does not hold")
        if "mlp" in wl.methods and not test["mlp"] <= test["lowdim"]:
            problems.append("ordering mlp <= lowdim does not hold")
    if "direct" in outcome.train and not outcome.train["direct"] < INTERPOLATION_RMSE:
        problems.append(f"direct train RMSE {outcome.train['direct']!r} is not below "
                        f"{INTERPOLATION_RMSE}")
    if any(code != 0 for code in outcome.exit_codes):
        problems.append(f"CLI exit codes {outcome.exit_codes}")
    return problems


# ---------------------------------------------------------------- tracing

def svd_flops(args, kwargs, result):
    """Golub & Van Loan R-SVD count for thin U, sigma, V: 6mn^2 + 20n^3, m >= n."""
    m, n = sorted(np.shape(args[0] if args else kwargs["m"]), reverse=True)
    return {"flops_computed": 6 * m * n * n + 20 * n ** 3}


def file_bytes(position: int):
    def facts(args, kwargs, result):
        path = args[position] if len(args) > position else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return facts


def trace_targets(sl, image_dim: int) -> list:
    """(owner, attribute, span-name label, facts) for every traced layer."""
    m, ss, sh, rd, pl = sl.mapping, sl.subspace, sl.shapes, sl.render, sl.pipeline

    def train_facts(args, kwargs, result):
        history = result.loss_history
        return {"epochs": len(history),
                "final_loss": float(history[-1]) if len(history) else 0.0}

    def pool_label(args, kwargs):
        samples = args[0] if args else kwargs["samples"]
        return "image" if len(samples) == image_dim else "shape"

    def subspace_facts(args, kwargs, result):
        return {"k_requested": result.k_requested, "k": result.k}

    return [
        (m, "mlp_train", None, train_facts),
        (m, "mlp_gradients", None, None),
        (m, "mlp_forward", None, None),
        (m, "fit_linear_map", None, None),
        (m, "fit_direct_map", None, None),
        (m, "save_map", None, file_bytes(1)),
        (m, "load_map", None, file_bytes(0)),
        (sl.linalg, "svd", None, svd_flops),
        (sl.linalg, "least_squares", None, None),
        (ss, "fit_subspace", pool_label, subspace_facts),
        (ss.SubspaceModel, "encode", None, None),
        (ss.SubspaceModel, "decode", None, None),
        (ss, "save_ssm", None, file_bytes(1)),
        (ss, "load_ssm", None, file_bytes(0)),
        (sh, "generate_voxel_shape", None, None),
        (sh, "generate_point_shape", None, None),
        (sh, "save_voxr", None, file_bytes(1)),
        (sh, "save_cloud", None, file_bytes(1)),
        (sh, "load_voxr", None, file_bytes(0)),
        (sh, "load_cloud", None, file_bytes(0)),
        (sh, "vectorize_shape", None, None),
        (rd, "render_depth", None, None),
        (rd, "save_pgm", None, file_bytes(1)),
        (rd, "load_pgm", None, file_bytes(0)),
        (pl, "generate_dataset", None, None),
        (pl, "load_unlabeled_images", None, None),
        (pl, "load_unlabeled_shapes", None, None),
        (pl, "pretrain", None, None),
        (pl, "load_paired", None, None),
        (pl, "fit_mapping", lambda a, kw: (a[0] if a else kw["config"]).mapping, None),
        (pl, "predict", None, None),
        (pl, "evaluate_rmse", None, None),
        (pl, "compare_methods", None, None),
        (sl.cli, "main", lambda a, kw: (a[0] if a else kw["argv"])[0], None),
    ]


# ---------------------------------------------------------------- runs

class Session:
    """Dataset and output directories of one benchmark process."""

    def __init__(self, sl, name: str, work: Path):
        self.sl = sl
        self.wl = WORKLOADS[name]
        self.cfg = ROOT / "configs" / self.wl.config
        self.manifest = sl.config.load_manifest(str(self.cfg))
        self.work = work

    def setup(self, data: Path) -> float:
        shutil.rmtree(data, ignore_errors=True)
        settle()
        started = time.perf_counter()
        self.sl.pipeline.generate_dataset(self.manifest, data, threads=1)
        return time.perf_counter() - started

    def body(self, data: Path, out: Path):
        """Run the body once; returns (wall s, cpu s, outcome)."""
        fresh_dir(out)
        settle()
        wall, cpu = time.perf_counter(), time.process_time()
        raw = run_body(self.sl, self.wl, self.cfg, data, out)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        return wall, cpu, read_outcome(self.wl, raw, out)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(session: Session, seconds: float) -> dict:
    # Set-up and body alternate so that a slow phase of the machine falls on
    # both alike; past MIN_REPS of each, a step starts only if it should end
    # within the budget.
    setup_s, run_s, cpu_s, outcomes, problems = [], [], [], [], []
    started = time.perf_counter()
    while True:
        body_next = len(setup_s) > len(run_s)
        if len(run_s) >= MIN_REPS and len(setup_s) >= MIN_REPS:
            expected = statistics.median(run_s if body_next else setup_s)
            if time.perf_counter() - started + expected > seconds:
                break
        if not body_next:
            if setup_s:
                shutil.rmtree(data)
            data = session.work / f"data{len(setup_s)}"
            setup_s.append(session.setup(data))
            continue
        wall, cpu, outcome = session.body(data, session.work / "out")
        found = check(session.wl, outcome)
        if outcomes and outcome.test != outcomes[0].test:
            found.append("test RMSEs differ from the first repetition")
        run_s.append(wall)
        cpu_s.append(cpu)
        outcomes.append(outcome)
        problems.append(found)
    peak = peak_rss_mb()
    last = outcomes[-1]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(run_s),
        "peak_rss_mb": peak,
        # A missing RMSE is already a failed check; the metric then reads null.
        **{f"test_rmse_{m}": last.test.get(m) for m in session.wl.methods},
    }
    return {
        "metrics": metrics,
        "problems": problems,
        "samples": {"setup_s": setup_s, "run_s": run_s, "run_cpu_s": cpu_s},
        "outcome": vars(last),
        "sha256_seen": sorted({json.dumps(o.sha256, sort_keys=True) for o in outcomes}),
    }


def traced_run(session: Session, declared: list) -> dict:
    sl = session.sl
    setup_plain = session.setup(session.work / "data_plain")
    run_plain, _, plain = session.body(session.work / "data_plain", session.work / "out_plain")
    image_dim = session.manifest.image_size ** 2
    tracer = spans.Tracer()
    tracer.install(trace_targets(sl, image_dim))
    try:
        settle()
        with tracer.span("setup"):
            sl.pipeline.generate_dataset(session.manifest, session.work / "data_traced",
                                         threads=1)
        out = fresh_dir(session.work / "out_traced")
        settle()
        with tracer.span("body"):
            raw = run_body(sl, session.wl, session.cfg, session.work / "data_traced", out)
    finally:
        tracer.uninstall()
    traced = read_outcome(session.wl, raw, out)
    stats = spans.summarize(tracer.spans)
    run_traced = stats["body"]["s"]

    gaps = spans.self_time_gaps(tracer.spans)
    leftovers = spans.leftover_wrappers([sl.subspace.SubspaceModel])
    layers = {name.rsplit(".", 1)[0] for name in declared if not name.startswith("trace.")}
    missing = sorted(layers - set(stats) - set(session.wl.never_called))
    self_test = []
    if traced.test != plain.test or traced.sha256 != plain.sha256:
        self_test.append(f"traced outputs {traced.test} differ from untraced {plain.test}")
    if any(abs(gap) > 1e-6 for gap in gaps.values()):
        self_test.append(f"self times do not sum to their root spans: {gaps}")
    if leftovers:
        self_test.append(f"wrappers left after uninstall: {leftovers}")
    if missing:
        self_test.append(f"no spans recorded for {missing}")

    metrics = {name: 0 for name in declared
               if name.rsplit(".", 1)[0] in session.wl.never_called}
    for name, entry in stats.items():
        for stat, value in entry.items():
            metrics[f"{name}.{stat}"] = value
    metrics["trace.overhead_s"] = run_traced - run_plain
    metrics["trace.spans"] = len(tracer.spans)
    return {
        "metrics": metrics,
        "problems": [check(session.wl, plain), check(session.wl, traced) + self_test],
        "samples": {"setup_s": [setup_plain], "run_s": [run_plain],
                    "traced_setup_s": [stats["setup"]["s"]], "traced_run_s": [run_traced]},
        "outcome": vars(traced),
        "self_time_gaps": gaps,
        "spans": spans.span_records(tracer.spans),
    }


# ---------------------------------------------------------------- environment

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def filesystem(path: Path) -> str:
    """Type of the mount holding path, from /proc/self/mountinfo."""
    target, best, fstype = str(path.resolve()), "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                before, _, after = line.partition(" - ")
                mount = before.split()[4]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, after.split()[0]
    except (OSError, IndexError):
        pass
    return fstype


def environment(work: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "shapelift_threads": 1,
        "workdir_filesystem": filesystem(work),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------- main

def declared_metrics(trace: bool) -> list:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"missing {path}")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    declared = declared_metrics(bool(args.trace))
    sl = import_shapelift()
    work = fresh_dir(OUT_DIR / f"work-{args.workload}-{os.getpid()}")
    try:
        session = Session(sl, args.workload, work)
        env = environment(work)
        started = time.perf_counter()
        record = (traced_run(session, [spec["name"] for spec in declared]) if args.trace
                  else timed_run(session, args.seconds))
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for found in record["problems"] if found)
    metrics = {}
    for spec in declared:
        value = record["metrics"].get(spec["name"])
        if value is None and not failed:
            fail(f"workload produced no value for {spec['name']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    result = {"correct": failed == 0, "attempted": len(record["problems"]),
              "failed": failed, "metrics": metrics}

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, elapsed_s=elapsed, environment=env, result=result)
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} attempted, {failed} failed, {elapsed:.1f} s", file=sys.stderr)
    for found in record["problems"]:
        for problem in found:
            print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    for name, entry in metrics.items():
        value = "null" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"  {name:<44} {value:>16} {entry['unit']}", file=sys.stderr)
    print(f"  record: {record_path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
