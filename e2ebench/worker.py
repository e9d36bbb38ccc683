"""One workload process of the end-to-end benchmark.

``run.py`` starts this file in a pinned environment (BLAS threads 1, engine
threads 1, ``src/`` on the path)::

    python3 e2ebench/worker.py --workload discover_lorenz96 --seed 1 \
        --seconds 10 --trace 0 --workdir .e2ebench/run

It sets the workload up, then runs timed ops in a closed loop with one
client (the next op starts when the previous one has returned) for
``--seconds`` and at least ``min_ops`` ops, all in this one process with no
worker pool.  Outputs are checked outside the timed region.  The last line
of standard output is one JSON object.  With ``--setup-only`` the process
stops where the first timed op would start; ``run.py`` uses such processes
to take the median set-up time.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.service.jobs as jobs
import repro.service.registry as registry
from repro.nn import get_default_dtype, set_default_dtype
from repro.nn.parallel import get_engine_threads, set_engine_threads
from repro.service.batched import group_batchable
from repro.service.executor import JobExecutor, execute_job
from repro.service.jobs import DiscoveryJob, JobResult
from repro.telemetry import capture

from layers import LAYERS, SpanRecorder, engine_op_seconds, layer_metrics, traced

#: the four synthetic structures of the paper, swept together
STRUCTURES = ("fork", "diamond", "mediator", "v_structure")
#: mixed lengths, so the batched sweep buckets shapes and pads lanes
SYNTHETIC_LENGTHS = (600, 800, 1000, 1200)
SYNTHETIC_SEEDS = 8
#: the lorenz96 requests: the warm sweep's seeds, and discover's cycle.  A
#: mean F1 over 4 seeds varied by 0.13-0.16 (quartile spread over median)
#: from one workload seed to the next; over 8 it stays well inside f1_mean's
#: bound.
LORENZ_SEEDS = 8
BUCKET_SLACK = 0.5
MAX_LANES = 8

Spec = Tuple[str, int, Dict[str, int]]
Edges = Tuple[Tuple[int, int, int], ...]


def dataset_seeds(seed: int, count: int) -> List[int]:
    """The dataset seeds a workload seed stands for (disjoint per seed)."""
    return [seed * 1000 + offset for offset in range(count)]


def lorenz_specs(seed: int, tiny: bool) -> List[Spec]:
    """The lorenz96 requests of a workload seed, at the generator's defaults."""
    kwargs = {"length": 150} if tiny else {}
    count = 2 if tiny else LORENZ_SEEDS
    return [("lorenz96", s, kwargs) for s in dataset_seeds(seed, count)]


def build_request(specs: Sequence[Spec]) -> List[Tuple[DiscoveryJob, object]]:
    """Build, fingerprint and wrap each dataset into a CausalFormer job, as
    ``python -m repro discover|sweep`` does.  Called through the modules so
    the traced run's wrappers see the calls."""
    pairs = []
    for name, seed, kwargs in specs:
        dataset = registry.build_dataset(name, seed=seed, **kwargs)
        job = DiscoveryJob(method="causalformer", dataset=name,
                           dataset_fingerprint=jobs.fingerprint_dataset(dataset),
                           seed=seed)
        pairs.append((job, dataset))
    return pairs


def edges(result: JobResult) -> Edges:
    return tuple(sorted((edge.source, edge.target, edge.delay)
                        for edge in result.graph.edges))


class Workload:
    """A request repeated in timed ops, plus the checks on its answers."""

    name = ""
    #: ops run even when ``--seconds`` is already over; also the ops after
    #: which peak RSS is read
    min_ops = 4

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        #: what the checks found wrong; empty means correct
        self.failures: List[str] = []
        self.failed_jobs = 0
        #: edges and F1 of every distinct job answered, by cache key
        self.answers: Dict[str, Edges] = {}
        self.f1: Dict[str, float] = {}

    def setup(self) -> None:
        """Fixtures built before the first timed op (counted in set-up)."""

    def op(self, index: int) -> List[JobResult]:
        raise NotImplementedError

    def after_op(self, results: List[JobResult]) -> None:
        """Check one op's answers (untimed): every job ok, and every job
        answered the same way each time it was asked."""
        for result in results:
            if not result.ok:
                self.failed_jobs += 1
                self.failures.append(f"{result.job.job_id} failed: {result.error}")
                continue
            key = result.job.cache_key()
            answer = edges(result)
            if self.answers.setdefault(key, answer) != answer:
                self.failures.append(f"{result.job.job_id} changed its graph between ops")
            self.f1[key] = result.scores.f1

    def final_checks(self) -> None:
        """Checks that run once after the timed ops."""

    def close(self) -> None:
        """Remove what the workload wrote."""


class DiscoverLorenz96(Workload):
    """``python -m repro discover --dataset lorenz96``, cold, one job per op."""

    name = "discover_lorenz96"
    # Each of the requests at least once, so f1_mean depends on the seed only.
    min_ops = LORENZ_SEEDS

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        super().__init__(workdir)
        self.specs = lorenz_specs(seed, tiny)

    def op(self, index: int) -> List[JobResult]:
        [(job, dataset)] = build_request([self.specs[index % len(self.specs)]])
        return [JobExecutor(max_workers=1, cache=None).run_one(job, dataset)]


class SweepSyntheticCold(Workload):
    """A 32-job batched sweep into a fresh, empty cache directory per op."""

    name = "sweep_synthetic_cold"

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        super().__init__(workdir)
        lengths = (100, 140) if tiny else SYNTHETIC_LENGTHS
        count = 2 if tiny else SYNTHETIC_SEEDS
        self.specs = [(structure, s, {"length": lengths[position % len(lengths)]})
                      for structure in STRUCTURES
                      for position, s in enumerate(dataset_seeds(seed, count))]
        self._cache_dirs: List[str] = []

    def op(self, index: int) -> List[JobResult]:
        cache_dir = tempfile.mkdtemp(prefix="cold-", dir=self.workdir)
        self._cache_dirs.append(cache_dir)
        executor = JobExecutor(max_workers=1, cache=cache_dir, batch_jobs=True,
                               bucket_slack=BUCKET_SLACK, max_lanes=MAX_LANES)
        return executor.run(build_request(self.specs))

    def after_op(self, results: List[JobResult]) -> None:
        super().after_op(results)
        self.close()

    def final_checks(self) -> None:
        """Lane == solo: one job of each shape bucket, re-run on its own,
        finds the same edges as its lane in the batched run."""
        pairs = list(enumerate(build_request(self.specs)))
        groups, _singles = group_batchable(pairs, slack=BUCKET_SLACK)
        for members in groups:
            _index, (job, dataset) = members[0]
            solo = execute_job(job, dataset)
            batched = self.answers.get(job.cache_key())
            if not solo.ok or batched is None or edges(solo) != batched:
                self.failures.append(
                    f"{job.job_id}: solo run disagrees with its batched lane")

    def close(self) -> None:
        for cache_dir in self._cache_dirs:
            shutil.rmtree(cache_dir, ignore_errors=True)
        self._cache_dirs.clear()


class SweepLorenz96Warm(Workload):
    """An 8-seed lorenz96 sweep replayed against the cache it filled."""

    name = "sweep_lorenz96_warm"

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        super().__init__(workdir)
        self.specs = lorenz_specs(seed, tiny)
        self.cache_dir = tempfile.mkdtemp(prefix="warm-", dir=workdir)
        #: edges of each job as the prefill computed and stored them
        self.stored: Dict[str, Edges] = {}

    def setup(self) -> None:
        for result in JobExecutor(max_workers=1, cache=self.cache_dir).run(
                build_request(self.specs)):
            if not result.ok:
                self.failures.append(f"prefill {result.job.job_id} failed: {result.error}")
                continue
            self.stored[result.job.cache_key()] = edges(result)

    def op(self, index: int) -> List[JobResult]:
        executor = JobExecutor(max_workers=1, cache=self.cache_dir)
        return executor.run(build_request(self.specs))

    def after_op(self, results: List[JobResult]) -> None:
        super().after_op(results)
        for result in results:
            if not result.ok:
                continue
            if not result.cached:
                self.failures.append(f"{result.job.job_id} missed the warm cache")
            elif self.stored.get(result.job.cache_key()) != edges(result):
                self.failures.append(
                    f"{result.job.job_id}: cache hit differs from the graph stored")

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


WORKLOADS = {workload.name: workload for workload in
             (DiscoverLorenz96, SweepSyntheticCold, SweepLorenz96Warm)}


def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS loaded in this process, if one is."""
    with open("/proc/self/maps") as maps:
        libraries = sorted({line.split()[-1] for line in maps
                            if "blas" in line.lower() and ".so" in line})
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def pin_environment() -> Dict[str, object]:
    """Pin engine threads and dtype, then record the environment.

    BLAS threads are pinned by the caller through the environment, before
    numpy loads; a process that ended up with more is refused."""
    set_engine_threads(1)
    set_default_dtype(np.float32)
    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {key: value for key, value in sorted(os.environ.items())
                       if key.endswith("_THREADS")},
        "engine_threads": get_engine_threads(),
        "default_dtype": np.dtype(get_default_dtype()).name,
    }
    if record["blas_threads"] not in (None, 1):
        raise SystemExit(f"BLAS runs {record['blas_threads']} threads; "
                         "start this process through run.py")
    return record


class HostProbe:
    """A fixed numpy workload, independent of the program, timed between ops.

    The host's speed drifts: other tenants of the machine moved this
    benchmark's op times by up to a factor of two within an hour, in phases
    tens of seconds long, while an op's time relative to the probe timed
    just before and after it stayed within a few percent.  Op and set-up
    times are therefore reported scaled to a host on which the probe takes
    ``REFERENCE_S`` (``speed`` = ``REFERENCE_S`` / probe time), and the raw
    wall times are reported beside them.  The probe mixes batched float32
    GEMMs with interpreter-bound small-array steps, like the ops it scales.
    """

    #: the probe's time on the 2-core host the benchmark was sized on
    REFERENCE_S = 0.027

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._blocks = rng.standard_normal((32, 64, 64)).astype(np.float32)
        self._state = rng.standard_normal(10)

    def speed(self) -> float:
        start = time.perf_counter()
        for _ in range(6):
            product = np.matmul(self._blocks, self._blocks)
            np.tanh(product, out=product)
            product.sum(axis=-1)
            np.maximum(product, 0.0, out=product)
        x = self._state
        for _ in range(1500):
            x = x + 0.01 * (np.roll(x, 1) - np.roll(x, -2)) * np.roll(x, -1) - 0.01 * x
        return self.REFERENCE_S / (time.perf_counter() - start)


def measure(workload: Workload, seconds: float, trace: bool, probe: HostProbe):
    """Run the timed ops; returns the result and the traced ops' spans.

    ``ready`` in the result is the monotonic clock where the first timed op
    was due, ``speed`` the host probe's reading just after it.  Each op's
    time is scaled by the mean probe reading just before and just after it.

    Untraced runs give the end-to-end metrics.  A traced run alternates
    untraced and traced ops on the same request, in ABBA order, so the
    tracing overhead is measured on like work; per-layer metrics (raw
    seconds) come from the traced ops only.
    """
    step = 2 if trace else 1
    recorder = SpanRecorder()
    walls: List[float] = []
    scaled: List[float] = []
    traced_scaled: List[float] = []
    engine_seconds: Dict[str, float] = {}
    attempted = traced_jobs = 0
    index = 0
    ready = time.monotonic()
    before = first_speed = probe.speed()
    started = time.perf_counter()
    while not (index >= workload.min_ops * step and index % step == 0
               and time.perf_counter() - started >= seconds):
        request = index // step
        tracing = trace and index % 2 != request % 2
        if tracing:
            recorder.op = request
            with capture(engine_profiling=True) as telemetry, traced(recorder):
                start = time.perf_counter()
                results = workload.op(request)
                elapsed = time.perf_counter() - start
            for op, total in engine_op_seconds(telemetry).items():
                engine_seconds[op] = engine_seconds.get(op, 0.0) + total
            traced_jobs += len(results)
        else:
            start = time.perf_counter()
            results = workload.op(request)
            elapsed = time.perf_counter() - start
        after = probe.speed()
        (traced_scaled if tracing else scaled).append(elapsed * (before + after) / 2)
        if not tracing:
            walls.append(elapsed)
        before = after
        attempted += len(results)
        workload.after_op(results)
        index += 1
        if index == workload.min_ops * step:
            # Read after a fixed number of ops, not at the end: the scratch
            # buffers that finished ops leave to the cycle collector raise
            # the peak with every op, which would tie it to the host's speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.final_checks()

    wall = {}
    if trace:
        overhead = statistics.median(traced_scaled) / statistics.median(scaled) - 1.0
        metrics = layer_metrics(recorder.spans, len(traced_scaled), traced_jobs,
                                engine_seconds, overhead)
    else:
        metrics = {
            "jobs_per_s": attempted / sum(scaled),
            "op_p50_s": statistics.median(scaled),
            "peak_rss_mb": peak_rss_mb,
            "f1_mean": (statistics.fmean(workload.f1.values())
                        if workload.f1 else 0.0),
        }
        wall = {"jobs_per_s": attempted / sum(walls),
                "op_p50_s": statistics.median(walls)}
    return {"ready": ready, "speed": first_speed, "correct": not workload.failures,
            "attempted": attempted, "failed": workload.failed_jobs,
            "metrics": metrics, "wall": wall,
            "failures": workload.failures[:20]}, recorder.spans


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", default=None,
                        help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    environment = pin_environment()
    # The modules an op reaches are imported here, in set-up, so the first
    # timed op does not pay for the program's lazy imports.
    for layer in LAYERS:
        importlib.import_module(layer.module)
    workload = WORKLOADS[args.workload](args.seed, args.workdir, tiny=args.tiny)
    try:
        probe = HostProbe()
        workload.setup()
        if args.setup_only:
            result = {"ready": time.monotonic(), "speed": probe.speed()}
        else:
            result, spans = measure(workload, args.seconds, bool(args.trace), probe)
            if args.trace_out:
                with open(args.trace_out, "w") as handle:
                    json.dump({"workload": workload.name, "seed": args.seed,
                               "environment": environment, "spans": spans}, handle)
    finally:
        workload.close()
    result["environment"] = environment
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
