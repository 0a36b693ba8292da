"""Closed-loop codec benchmark for rahtp.

    python3 perfbench/run.py --workload box-fresh-hirate --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout, never from an installed copy.  One process, one caller: each
operation (``encode`` with ``colorspace="bt709"``, then ``decode`` onto the
same geometry) starts when the previous one has returned.  Rounds build a
fresh input cloud from the seed and run the workload's operations on it;
rounds repeat until ``--seconds`` have passed and at least ``MIN_ROUNDS``
have completed.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` runs round 0 untraced once and traced twice, and prints the
per-layer metrics from the spans (see ``spans.py``).  Human-readable lines
come first; the last line of stdout is one JSON object.  See README.md.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads(limit):
    """Cap BLAS/OpenMP pools at ``limit``; must run before numpy loads."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= limit:
            os.environ[var] = str(limit)
    return {var: int(os.environ[var]) for var in THREAD_VARS}


# at import time, because numpy is imported only after this module
THREAD_CAP = cap_threads(NPROC)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

# a run completes at least this many rounds, so the throughput median has
# three samples even on hat-multirate (12 s a round); bpp, PSNR and peak RSS
# come from these first rounds, the same operations whatever the speed
MIN_ROUNDS = 3
WARMUP_MAX_ERR = 1e-6           # paper criterion 1, analyze/synthesize only
# the full-size warm-up cloud's round index; no measured round reaches it, so
# the warm-up never codes a geometry that a measured round codes
WARMUP_ROUND = 10 ** 6
IMPORT_REPEATS = 3              # fresh interpreters timed importing rahtp

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    cloud: dict          # make_synthetic_cloud arguments; the seed is per round
    order: int
    mode: str
    k: int
    steps: tuple         # one operation per step, all on the round's cloud
    psnr_floor: float    # an operation under this YUV PSNR (dB) has failed


WORKLOADS = {
    # hierarchy and RLGR at 22 bpp carry the load; new geometry every round
    "box-fresh-hirate": Workload(
        cloud=dict(kind="sphere", count=300000, depth=8, noise=8.0),
        order=1, mode="overcomplete", k=16, steps=(0.5,), psnr_floor=55.0),
    # series-heavy; the only workload that codes one voxel set repeatedly
    "hat-multirate": Workload(
        cloud=dict(kind="torus", count=200000, depth=7),
        order=2, mode="overcomplete", k=256, steps=(1.0, 4.0, 16.0),
        psnr_floor=50.0),
    # the only workload that runs sparse_ops (split, Ztilde, W series)
    "box-critical": Workload(
        cloud=dict(kind="sphere", count=200000, depth=7),
        order=1, mode="critical", k=16, steps=(4.0,), psnr_floor=45.0),
}

# name -> (unit, direction); the order is the print order
END_TO_END = {
    "encode_voxps": ("vox/s", "higher"),
    "decode_voxps": ("vox/s", "higher"),
    "bpp": ("bit/vox", "lower"),
    "psnr_yuv_db": ("dB", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "ok_ratio": ("ratio", "higher"),
}

SELF_TIMED = (
    "geometry.build_hierarchy", "geometry.geometry_digest", "geometry.voxelize",
    "kernels.gram_levels", "kernels.build_a_matrix",
    "transform.plan", "transform.apply_basis_scaling", "transform.analyze",
    "transform.synthesize", "spectral.apply_series", "spectral.eigen_bound",
    "sparse_ops.build_split", "sparse_ops.ZtildeOp",
    "codec.rlgr_encode", "codec.rlgr_decode", "codec.quantize",
    "codec.encode", "codec.decode",
)
CALLS = ("geometry.build_hierarchy", "spectral.apply_series",
         "spectral.eigen_bound", "sparse_ops.build_split")
COUNTS = ("spectral.apply_series.rows", "sparse_ops.split_errors",
          "codec.symbols", "codec.payload_bytes")

PER_LAYER = {name + ".self_s": ("s", "lower") for name in SELF_TIMED}
PER_LAYER.update({name + ".calls": ("count", "lower") for name in CALLS})
PER_LAYER.update({name: ("count", "lower") for name in COUNTS})
PER_LAYER.update({
    "geometry.nodes_total": ("count", "lower"),
    "transform.critical_level_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "bench.glue_s": ("s", "lower"),
})

# counts that must repeat exactly between two passes over the same inputs
REPEATED = tuple(n + ".calls" for n in CALLS) + COUNTS + (
    "geometry.nodes_total", "transform.critical_level_ratio", "bpp",
    "psnr_yuv_db")


def import_rahtp():
    """Import the checkout's package, never an installed copy."""
    sys.path.insert(0, SRC)
    import rahtp
    if not os.path.abspath(rahtp.__file__).startswith(SRC + os.sep):
        raise ImportError("rahtp resolved outside %s: %s" % (SRC, rahtp.__file__))
    return rahtp


def import_seconds():
    """Median wall time of a fresh interpreter importing rahtp."""
    code = "import sys; sys.path.insert(0, %r); import rahtp" % SRC
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = clock()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(clock() - t0)
    return statistics.median(times)


def source_digest():
    """Short digest of the package sources: names the code measured."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rahtp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:12]


def round_seed(seed, r):
    import numpy as np
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


class Bench:
    """One workload's inputs, operations and correctness checks."""

    def __init__(self, rahtp, name, wl, seed):
        self.rahtp = rahtp
        self.name = name
        self.wl = wl
        self.seed = seed
        self.config = rahtp.TransformConfig(
            order=wl.order, residual_mode=wl.mode,
            approx=rahtp.ApproxRoles.uniform(wl.k), scaling=True)

    def warmup(self):
        """Untimed: criterion-1 round trip and a codec pass on sphere200,
        then one full-size encode.  Without it the first measured encode
        runs about 50% slower (first-touch allocation); one encode is
        enough, the first decode shows no such cost."""
        import numpy as np
        r = self.rahtp
        cloud = r.builtin_clouds()["sphere200"]
        hierarchy = r.build_hierarchy(cloud, self.wl.order)
        coeffs = r.analyze(hierarchy, cloud.attributes, self.config)
        rec = r.synthesize(hierarchy, coeffs, self.config)
        err = float(np.abs(rec - cloud.attributes).max())
        small = self.operation(cloud, self.wl.steps[0])
        r.codec.encode(self.build(WARMUP_ROUND)[0], self.config,
                       self.wl.steps[0], colorspace="bt709")
        return err, bool(err <= WARMUP_MAX_ERR and small.get("finite"))

    def build(self, r):
        """Round r's input cloud; returns (cloud, seconds)."""
        t0 = clock()
        cloud = self.rahtp.make_synthetic_cloud(seed=round_seed(self.seed, r),
                                                **self.wl.cloud)
        return cloud, clock() - t0

    def operation(self, cloud, step):
        """encode then decode through the codec module's current bindings."""
        import numpy as np
        codec = self.rahtp.codec
        gc.collect()
        op = {"voxels": len(cloud.positions), "step": step, "ok": False}
        try:
            t0 = clock()
            blob, stats = codec.encode(cloud, self.config, step,
                                       colorspace="bt709")
            t1 = clock()
            rec, _ = codec.decode(blob, cloud)
            t2 = clock()
        except Exception:           # an operation's failure is data here
            op["error"] = traceback.format_exc()
            print(op["error"], file=sys.stderr)
            return op
        m = self.rahtp.compute_metrics(
            codec.rgb_to_bt709(cloud.attributes), codec.rgb_to_bt709(rec),
            stats["payload_bytes"], len(cloud.positions), stats["coeff_count"])
        finite = bool(np.isfinite(rec).all())
        op.update(encode_s=t1 - t0, decode_s=t2 - t1, start=t0, end=t2,
                  finite=finite,
                  bpp=float(m.bpp), psnr=float(m.psnr_combined),
                  modes=stats["modes"],
                  blob=hashlib.sha256(blob).hexdigest(),
                  ok=finite and m.psnr_combined >= self.wl.psnr_floor)
        if not op["ok"]:
            print("operation failed: finite=%s psnr=%.3f dB floor=%.1f dB"
                  % (finite, m.psnr_combined, self.wl.psnr_floor),
                  file=sys.stderr)
        return op

    def round(self, r):
        cloud, build_s = self.build(r)
        return cloud, build_s, [self.operation(cloud, s) for s in self.wl.steps]

    def reencode_matches(self, cloud, op):
        """Re-encode an operation's input; True when the bytes are identical."""
        blob, _ = self.rahtp.codec.encode(cloud, self.config, op["step"],
                                          colorspace="bt709")
        return hashlib.sha256(blob).hexdigest() == op.get("blob")


def quality(ops):
    """Mean bpp and YUV PSNR over the fixed quality set of operations."""
    ok = [op for op in ops if op["ok"]]
    if not ok:
        return 0.0, 0.0
    return (statistics.fmean(op["bpp"] for op in ok),
            statistics.fmean(op["psnr"] for op in ok))


def run_untraced(bench, seconds, import_s):
    rounds, builds = [], []
    first_cloud = None
    t_start = clock()
    while len(rounds) < MIN_ROUNDS or clock() - t_start < seconds:
        cloud, build_s, ops = bench.round(len(rounds))
        if first_cloud is None:
            first_cloud = cloud
        builds.append(build_s)
        rounds.append(ops)
        if len(rounds) == MIN_ROUNDS:
            # the peak over a fixed amount of work: a faster codec that fits
            # more rounds in the run must not see more allocator jitter
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = [op for ops_r in rounds for op in ops_r]
    first = ops[0]
    if first["ok"] and not bench.reencode_matches(first_cloud, first):
        print("re-encoding the first input changed its bytes", file=sys.stderr)
        first["ok"] = False
    ok = [op for op in ops if op["ok"]]
    bpp, psnr = quality([op for ops_r in rounds[:MIN_ROUNDS] for op in ops_r])
    clean = [ops_r for ops_r in rounds if all(op["ok"] for op in ops_r)]

    def median_rate(key):
        """Median over rounds: every round has the same mix of steps."""
        if not clean:
            return 0.0
        return statistics.median(sum(op["voxels"] for op in ops_r)
                                 / sum(op[key] for op in ops_r)
                                 for ops_r in clean)

    metrics = {
        "encode_voxps": median_rate("encode_s"),
        "decode_voxps": median_rate("decode_s"),
        "bpp": bpp,
        "psnr_yuv_db": psnr,
        "peak_rss_mb": peak_rss,
        "setup_s": import_s + statistics.median(builds),
        "ok_ratio": len(ok) / len(ops),
    }
    info = {"rounds": len(rounds), "operations": len(ops),
            "measured_s": clock() - t_start,
            "median_build_s": statistics.median(builds), "import_s": import_s}
    return metrics, len(ops), len(ops) - len(ok), info


def layer_metrics(tracer, selfs, op_ids, build_ids, walls, untraced_walls):
    """Per-operation means of self times and counts over the traced ops."""
    n = len(op_ids)

    def per_op(name, field):
        return sum(selfs[op][name][field] for op in op_ids) / n

    out = {name + ".self_s": per_op(name, 0) for name in SELF_TIMED}
    out["geometry.voxelize.self_s"] = sum(
        selfs[b]["geometry.voxelize"][0] for b in build_ids) / len(build_ids)
    out.update({name + ".calls": per_op(name, 1) for name in CALLS})
    for name in COUNTS:
        out[name] = sum(tracer.counts[op][name] for op in op_ids) / n
    hierarchies = sum(tracer.counts[op]["geometry.hierarchies"] for op in op_ids)
    out["geometry.nodes_total"] = sum(
        tracer.counts[op]["geometry.nodes_total"] for op in op_ids) / max(hierarchies, 1)
    out["trace.overhead_s"] = statistics.fmean(walls) - statistics.fmean(untraced_walls)
    out["bench.glue_s"] = sum(w - tracer.root_seconds(op)
                              for op, w in zip(op_ids, walls)) / n
    return out


def repeatable(tracer, selfs, op_id, op):
    """The values of one traced operation that must repeat exactly."""
    counts = tracer.counts[op_id]
    out = {name + ".calls": selfs[op_id][name][1] for name in CALLS}
    out.update({name: counts[name] for name in COUNTS})
    out["geometry.nodes_total"] = counts["geometry.nodes_total"]
    out["transform.critical_level_ratio"] = op.get("modes")
    out["bpp"] = op.get("bpp")
    out["psnr_yuv_db"] = op.get("psnr")
    return out


def run_traced(bench, spans):
    """Round 0 once untraced, then twice traced.

    Per-layer metrics are per-operation means over both traced passes.  The
    passes must agree exactly on every count, and all three on the bytes.
    """
    _, _, base = bench.round(0)
    tracer = spans.Tracer()
    passes = {}
    with tracer:
        for p in ("A", "B"):
            tracer.op = p + ".build"
            cloud, _ = bench.build(0)
            for i, step in enumerate(bench.wl.steps):
                tracer.op = "%s.%d" % (p, i)
                passes[tracer.op] = bench.operation(cloud, step)
    tracer.op = None
    traced = list(passes.values())
    failed = sum(not op["ok"] for op in base + traced)
    wall = lambda op: op.get("end", 0.0) - op.get("start", 0.0)  # noqa: E731
    selfs = tracer.self_times()
    metrics = layer_metrics(tracer, selfs, list(passes), ["A.build", "B.build"],
                            [wall(op) for op in traced], [wall(op) for op in base])
    modes = "".join(op.get("modes", "") for op in traced)
    metrics["transform.critical_level_ratio"] = (
        modes.count("c") / len(modes)
        if bench.wl.mode == "critical" and modes else 0.0)

    drift = []
    for i in range(len(bench.wl.steps)):
        a, b = ("%s.%d" % (p, i) for p in "AB")
        ra = repeatable(tracer, selfs, a, passes[a])
        rb = repeatable(tracer, selfs, b, passes[b])
        drift += [name for name in REPEATED if ra[name] != rb[name]]
        if not base[i].get("blob") == passes[a].get("blob") == passes[b].get("blob"):
            drift.append("bitstream")
    for name in drift:
        print("nondeterminism: %s differs between repeated passes" % name,
              file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, "trace-%s-seed%d.json"
                              % (bench.name, bench.seed)))
    info = {"spans": len(tracer.spans), "drift": sorted(set(drift)),
            "traced_wall_s": statistics.fmean(wall(op) for op in traced),
            "untraced_wall_s": statistics.fmean(wall(op) for op in base)}
    return metrics, len(base) + len(traced), failed, not drift, info, tracer


def emit(metrics, table, label):
    for name, (unit, better) in table.items():
        print("%s %-36s %16.6f %-8s (%s is better)"
              % (label, name, metrics[name], unit, better))


def main(argv=None, workloads=WORKLOADS):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        rahtp = import_rahtp()
    except ImportError as exc:
        print("cannot import rahtp from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    import numpy
    import scipy
    import spans

    bench = Bench(rahtp, args.workload, workloads[args.workload], args.seed)
    print("env nproc=%d thread_cap=%s numpy=%s scipy=%s python=%s source=%s"
          % (NPROC, ",".join("%s=%d" % kv for kv in THREAD_CAP.items()),
             numpy.__version__, scipy.__version__, sys.version.split()[0],
             source_digest()))
    print("workload %s seed=%d seconds=%g trace=%d loop=closed callers=1"
          % (args.workload, args.seed, args.seconds, args.trace))

    warm_err, warm_ok = bench.warmup()
    print("warmup sphere200 analyze/synthesize max_err=%.3e (limit %.0e) %s"
          % (warm_err, WARMUP_MAX_ERR, "ok" if warm_ok else "FAILED"))

    if args.trace:
        metrics, attempted, failed, repeat_ok, info, _ = run_traced(bench, spans)
        correct = warm_ok and failed == 0 and repeat_ok
        table = PER_LAYER
        print("trace spans=%(spans)d traced_wall_s=%(traced_wall_s).4f "
              "untraced_wall_s=%(untraced_wall_s).4f drift=%(drift)s" % info)
        emit(metrics, table, "layer")
    else:
        metrics, attempted, failed, info = run_untraced(bench, args.seconds,
                                                        import_seconds())
        correct = warm_ok and failed == 0
        table = END_TO_END
        print("run rounds=%(rounds)d operations=%(operations)d "
              "measured_s=%(measured_s).3f import_s=%(import_s).4f "
              "median_build_s=%(median_build_s).4f" % info)
        emit(metrics, table, "metric")
        print("metric %-36s %16.6f %-8s (lower is better)"
              % ("fail_ratio", failed / attempted, "ratio"))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": table[n][0]} for n in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
