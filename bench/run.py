#!/usr/bin/env python3
"""eqtie benchmark: the CLI and library entry points, timed on committed spec corpora.

Run from the repository root:

    python3 bench/run.py --workload aut-wide --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One process, one thread, closed loop: each op starts when the previous one
returns. A pass runs every op of the workload once; passes repeat for
``--seconds`` of wall time. CLI ops call ``eqtie.cli.main`` in process on spec
files whose N and M labels are conjugated by a permutation drawn from
``--seed``, which leaves every verdict and order unchanged; every output is
checked against the hand-derived answers in ``bench/expected``.

The host's speed drifts by up to a third between runs, so the timed
end-to-end metrics are in reference units: a fixed pure-Python kernel that
does not use eqtie runs before every op and after the last one, and each op's
time is divided by the mean of the two kernel times around it. Raw seconds
are printed on the lines above the JSON line.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates untraced
passes with passes in which eqtie's public functions are wrapped (see
spans.py), and prints per-layer self times and counts per pass, the untraced
per-subcommand totals and the tracing overhead; the spans are written to
``.bench_trace/<workload>.tsv``. The last stdout line is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

OP_TIMEOUT_S = 30.0  # a hang fails the op instead of the run
RUN_DEADLINE_S = 150.0  # ops still running past this fail fast, so the run ends in 180 s
SETUP_REPEATS = 11
MIN_PASSES = 3
MIN_TRACE_PASSES = 2

# Which ops each workload runs. CLI ops are (subcommand, spec); library ops
# are names from library_ops(). Why each workload exists is in bench/README.md.
WORKLOADS = {
    "aut-wide": {
        "cli": [("certify", s) for s in ("kk6", "kk7", "kk8", "agl1-7", "readme-ch23")],
        "library": [],
    },
    "aut-exact": {
        "cli": [
            (sub, s)
            for s in ("sym5", "sym6", "sym7", "wreath3x3", "rot90-digraph", "mirror", "readme")
            for sub in ("design", "certify")
        ],
        "library": [],
    },
    "compile-big": {
        "cli": [
            (sub, s)
            for s in ("sym7", "wreath3x3", "gconv-tied-z120", "gconv-tied-z240", "dense-z120")
            for sub in ("group_info", "design_dot", "check")
        ],
        "library": ["gconv-z240", "compose-s6"],
    },
}

# subcommand -> (metric bucket, expected-exit-code key)
SUBCOMMANDS = {
    "group_info": ("group_info_s", "group_info"),
    "design": ("design_s", "design"),
    "design_dot": ("design_s", "design"),
    "check": ("check_s", "check"),
    "certify": ("certify_s", "certify"),
}

BUCKETS = ("group_info_s", "design_s", "check_s", "certify_s", "library_s")

SETUP_CODE = (
    "import sys, pathlib; sys.path.insert(0, sys.argv[1]); import eqtie.cli as cli; "
    "[cli.specio.parse_spec(pathlib.Path(p).read_text()) for p in sys.argv[2:]]"
)


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded its {OP_TIMEOUT_S:.0f} s timeout")


@dataclass
class Op:
    label: str
    bucket: str
    run: object  # callable() -> Outcome payload
    check: object  # callable(payload) -> failure reason or None


@dataclass
class Outcome:
    seconds: float
    payload: object = None
    error: str | None = None


@dataclass
class PassRecord:
    seconds: float
    buckets: dict
    outcomes: list
    ref_ops: list  # each op's time in reference units (see reference_kernel)


# ---------------------------------------------------------------------------
# machine-speed reference

# Fixed inputs, independent of --seed: 300 permutations of 14 points.
_REF_RNG = random.Random(1702)
REF_PERMS = [tuple(_REF_RNG.sample(range(14), 14)) for _ in range(300)]
REF_DISTINCT = 7200


def reference_kernel() -> float:
    """Seconds for a fixed ~10 ms of pure-Python work that does not touch eqtie.

    It composes permutation tuples and counts them in a dict, the same kind
    of work as eqtie's closure and search, so a busy neighbour on the shared
    host slows it about as much as it slows eqtie. An op's time divided by the
    kernel's time next to it is steady across that drift; a change to eqtie
    moves the quotient, because the kernel stays the same.
    """
    start = time.perf_counter()
    seen: dict = {}
    for p in REF_PERMS[:120]:
        for q in REF_PERMS[::5]:
            r = tuple(p[i] for i in q)
            seen[r] = seen.get(r, 0) + 1
    elapsed = time.perf_counter() - start
    if len(seen) != REF_DISTINCT:
        raise RuntimeError(f"reference kernel produced {len(seen)} permutations")
    return elapsed


# ---------------------------------------------------------------------------
# inputs


def conjugate_spec(doc: dict, rng: random.Random) -> dict:
    """Relabel N and M points by seeded permutations (one shared one in digraph mode).

    Conjugating an action by a relabelling leaves orders, color counts and
    verdicts unchanged but changes the order the automorphism search visits.
    """
    doc = json.loads(json.dumps(doc))
    n_size, m_size = doc["n_action"]["size"], doc["m_action"]["size"]
    sigma_n = rng.sample(range(n_size), n_size)
    sigma_m = sigma_n if doc.get("mode") == "digraph" else rng.sample(range(m_size), m_size)
    for key, sigma in (("n_action", sigma_n), ("m_action", sigma_m)):
        doc[key]["generator_images"] = [
            re.sub(r"\d+", lambda m, s=sigma: str(s[int(m.group())]), cycles)
            for cycles in doc[key]["generator_images"]
        ]
    return doc


def run_cli(cli, argv: list[str], files: list[Path]):
    """One in-process CLI call; returns (exit code, stdout, stderr, output file bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    blobs = tuple(p.read_bytes() if p.exists() else None for p in files)
    return code, out.getvalue(), err.getvalue(), blobs


# ---------------------------------------------------------------------------
# checks against bench/expected


def check_cli(sub: str, expected: dict, seed: int, result) -> str | None:
    code, stdout, stderr, blobs = result
    want_code = expected["exit_codes"][SUBCOMMANDS[sub][1]]
    if code != want_code:
        return f"exit code {code} != {want_code}: {stderr.strip()[:200]}"
    try:
        if sub == "group_info":
            doc = json.loads(blobs[0])
            got = (doc["group_order"], doc["joint_order"])
            want = (expected["group_order"], expected["joint_order"])
        elif sub in ("design", "design_dot"):
            doc = json.loads(stdout)
            got = (doc["base_color_count"], doc["merged_color_count"])
            want = (expected["base_color_count"], expected["merged_color_count"])
            if sub == "design_dot" and not (blobs[0] or b"").rstrip().endswith(b"}"):
                return "DOT export missing or truncated"
        elif sub == "check":
            doc = json.loads(stdout)
            got = (doc["passed"], doc["exact_pass"], doc["tested_elements"], doc["seed"])
            want = (expected["check_passed"], expected["check_passed"],
                    expected["joint_order"], seed)
        else:
            cert = json.loads(stdout)["certification"]
            got = (cert["verdict"], cert["aut_order"], cert["joint_order"],
                   cert["witness"] is None)
            want = (expected["verdict"], expected["aut_order"], expected["joint_order"],
                    expected["verdict"] == "unique")
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if got != want:
        return f"got {got}, expected {want}"
    return None


def library_ops(modules, seed: int) -> dict[str, tuple]:
    """Library ops as (run, check) pairs over inputs drawn from ``seed``."""
    import numpy as np

    permcore, designs, layer = modules["permcore"], modules["designs"], modules["layer"]
    rng = np.random.default_rng(seed)
    expected = json.loads((BENCH / "expected" / "library.json").read_text())

    theta = rng.choice(np.arange(1, 50), size=2, replace=False)
    x = rng.integers(-9, 10, size=240).astype(float)

    def gconv_run():
        g = permcore.close_generators(permcore.cyclic_generators(240))
        joint = permcore.joint_action(permcore.natural_action(g), permcore.regular_action(g))
        tied = layer.group_conv(joint, [1, 239], theta=theta)
        return tied.color_matrix.base_color_count, layer.forward(tied, x).tolist()

    def gconv_check(payload):
        colors, y = payload
        want = theta[0] * np.roll(x, -1) + theta[1] * np.roll(x, 1)
        if colors != expected["gconv-z240"]["base_color_count"]:
            return f"{colors} base colors"
        if not np.array_equal(np.array(y), want):
            return "output differs from the circular cross-correlation"
        return None

    thetas = [rng.choice(np.arange(1, 50), size=2, replace=False) for _ in range(3)]

    def compose_run():
        g = permcore.close_generators(permcore.symmetric_generators(6))
        nat = permcore.natural_action(g)
        joint = permcore.joint_action(nat, nat)
        s = designs.dense_design(joint)
        stack = [layer.tied_layer_from_structure(s, theta=t) for t in thetas]
        return [
            layer.compose_layers(a, b, joint, joint, seed=seed)
            for a, b in zip(stack, stack[1:])
        ]

    def compose_check(reports):
        want = expected["compose-s6"]
        for r in reports:
            got = (r.passed, r.exact_pass, r.tested_elements)
            if got != (want["passed"], want["exact_pass"], want["tested_elements"]):
                return f"got {got}"
        return None

    return {"gconv-z240": (gconv_run, gconv_check), "compose-s6": (compose_run, compose_check)}


# ---------------------------------------------------------------------------
# the benchmark


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, modules: dict):
        self.workload = workload
        self.seed = seed
        self.modules = modules
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        spec = WORKLOADS[workload]
        self.spec_paths: dict[str, Path] = {}
        self.ops: list[Op] = []
        for i, (sub, name) in enumerate(spec["cli"]):
            path = self._write_spec(work, name)
            expected = json.loads((BENCH / "expected" / f"{name}.json").read_text())
            self.ops.append(self._cli_op(i, work, sub, name, path, expected))
        for name, (run, check) in library_ops(modules, seed).items():
            if name in spec["library"]:
                self.ops.append(Op(f"library:{name}", "library_s", run, check))

    def _write_spec(self, work: Path, name: str) -> Path:
        if name not in self.spec_paths:
            doc = json.loads((BENCH / "corpus" / f"{name}.json").read_text())
            doc = conjugate_spec(doc, random.Random(f"{self.seed}:{name}"))
            path = work / f"{name}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n")
            self.spec_paths[name] = path
        return self.spec_paths[name]

    def _cli_op(self, i, work, sub, name, path, expected) -> Op:
        cli = self.modules["cli"]
        argv = {
            "group_info": ["group", "info"],
            "design": ["design"],
            "design_dot": ["design"],
            "check": ["check", "equivariance", "--seed", str(self.seed)],
            "certify": ["certify", "unique"],
        }[sub] + ["--spec", str(path)]
        files = []
        if sub == "group_info":
            files.append(work / f"op{i}.info.json")
            argv += ["--out", str(files[0])]
        if sub == "design_dot":
            files.append(work / f"op{i}.dot")
            argv += ["--dot", str(files[0])]

        def run():
            for p in files:
                p.unlink(missing_ok=True)
            return run_cli(cli, argv, files)

        return Op(f"{sub}:{name}", SUBCOMMANDS[sub][0], run,
                  lambda result: check_cli(sub, expected, self.seed, result))

    def execute(self, op: Op, tracer=None, label=None) -> Outcome:
        """Run one op under a timeout; the outcome's time covers the op alone."""
        self.attempted += 1
        timeout = min(OP_TIMEOUT_S, max(1.0, self.deadline - time.monotonic()))
        signal.setitimer(signal.ITIMER_REAL, timeout)
        start = time.perf_counter()
        try:
            if tracer is None:
                payload = op.run()
            else:
                with tracer.op(label or op.label):
                    payload = op.run()
            outcome = Outcome(time.perf_counter() - start, payload)
        except Exception as exc:  # any crash, cap or timeout is a failed op, never a skip
            outcome = Outcome(time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return outcome

    def _fail(self, label: str, reason: str):
        self.failed += 1
        self.failures.append(f"{label}: {reason}")

    def run_pass(self, tracer=None) -> PassRecord:
        """Every op once, then every output checked; returns the op times.

        The reference kernel runs before each op and after the last; each op
        is also recorded in reference units, its time over the mean of the
        two kernel times around it.
        """
        gc.collect()
        buckets = dict.fromkeys(BUCKETS, 0.0)
        outcomes = []
        refs = []
        for op in self.ops:
            refs.append(reference_kernel())
            outcomes.append(self.execute(op, tracer))
        refs.append(reference_kernel())
        for i, (op, outcome) in enumerate(zip(self.ops, outcomes)):
            buckets[op.bucket] += outcome.seconds
            reason = outcome.error or op.check(outcome.payload)
            if reason:
                self._fail(op.label, reason)
        ref_ops = [o.seconds / ((refs[i] + refs[i + 1]) / 2) for i, o in enumerate(outcomes)]
        return PassRecord(sum(o.seconds for o in outcomes), buckets, outcomes, ref_ops)

    def repeat_one(self, record: PassRecord, tracer=None):
        """Run one op of the pass again; it must reproduce its output byte for byte."""
        i = self.rng.randrange(len(self.ops))
        first = record.outcomes[i]
        again = self.execute(self.ops[i], tracer, label=f"repeat:{self.ops[i].label}")
        # payloads hold exit codes, output text and bytes, floats and reports,
        # all of which repr exactly
        if first.error is None and (again.error is not None
                                    or repr(again.payload) != repr(first.payload)):
            self._fail(self.ops[i].label, "repeated run produced different output")

    def setup_once(self) -> float | None:
        """One fresh interpreter that imports eqtie.cli and parses every workload spec."""
        cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, self.spec_paths.values())]
        self.attempted += 1
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._fail("setup", f"no exit within {OP_TIMEOUT_S:.0f} s")
            return None
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            self._fail("setup", proc.stderr.strip()[-200:])
            return None
        return elapsed

    def measure(self, seconds: float) -> tuple[list[PassRecord], list[float]]:
        """Passes for ``seconds`` of wall time, with the set-up runs spread among them.

        Spreading the set-up runs over the passes lets them see the same
        drift of the host as the passes, not one moment of it. Their own
        time does not count towards ``seconds``.
        """
        records: list[PassRecord] = []
        setup: list[float | None] = []  # None marks a failed set-up run
        measured = 0.0
        while time.monotonic() < self.deadline and (measured < seconds or len(records) < MIN_PASSES):
            start = time.monotonic()
            records.append(self.run_pass())
            self.repeat_one(records[-1])
            measured += time.monotonic() - start
            due = SETUP_REPEATS * min(1.0, measured / seconds)
            while len(setup) < due and time.monotonic() < self.deadline:
                setup.append(self.setup_once())
        while len(setup) < SETUP_REPEATS and time.monotonic() < self.deadline:
            setup.append(self.setup_once())
        return records, [t for t in setup if t is not None]


# ---------------------------------------------------------------------------
# tracing: which functions, and what each boundary counts

def _add(key, value):
    def count(counter, args, result):
        counter[key] += value(args, result)
    return count


def _structure_counts(counter, args, result):
    counter["designs.relations"] += len(result.relations)
    counter["designs.edges"] += sum(len(r.edges) for r in result.relations)


def _report_counts(matvecs_per_trial):
    def count(counter, args, report):
        counter["layer.tested_elements"] += report.tested_elements
        counter["layer.float_matvecs"] += matvecs_per_trial * report.tested_elements * report.trials
    return count


def _aut_counts(counter, args, result):
    counter["autsearch.elements_listed"] += len(result.elements or ())
    counter["autsearch.generators_returned"] += len(result.generators or ())


def _refine_counts(counter, args, table):
    counter["autsearch.color_refine_calls"] += 1
    counter["autsearch.refine_rounds"] += table.rounds


TRACED = [
    ("cli", "main", None),
    ("cli", "_run_group_info", None),
    ("cli", "_run_design", None),
    ("cli", "_run_check", None),
    ("cli", "_run_certify", None),
    ("specio", "parse_spec", None),
    ("specio", "build_structure", None),
    ("specio", "expanded_joint", None),
    ("specio", "build_mask_document", None),
    ("specio", "dump_mask", _add("specio.mask_bytes", lambda a, r: len(r))),
    ("specio", "to_dot", _add("specio.dot_bytes", lambda a, r: len(r))),
    ("permcore", "close_generators", _add("permcore.group_order_sum", lambda a, r: r.order)),
    ("permcore", "build_action", None),
    ("permcore", "regular_action", None),
    ("permcore", "joint_action", _add("permcore.joint_order_sum", lambda a, r: r.joint_order)),
    ("permcore", "classify_action", None),
    ("permcore", "orbits", None),
    ("permcore", "symmetrize_genset", None),
    ("designs", "dense_design", _structure_counts),
    ("designs", "sparse_design", _structure_counts),
    ("designs", "merge_colors", _add("designs.merge_colors_calls", lambda a, r: 1)),
    ("designs", "expand_channels", None),
    ("designs", "with_identity_relation", None),
    ("layer", "tied_layer_from_structure", None),
    ("layer", "materialize", None),
    ("layer", "check_equivariance", _report_counts(2)),
    ("layer", "group_conv_structure", None),
    ("layer", "compose_layers", _report_counts(4)),
    ("autsearch", "color_refine", _refine_counts),
    ("autsearch", "enumerate_automorphisms", _aut_counts),
    ("autsearch", "certify_unique", None),
]


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removeprefix('_run_')}"


# ---------------------------------------------------------------------------
# reporting


def load_benchmark_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc["end_to_end"], doc["per_layer"]


def median(values):
    return statistics.median(values) if values else 0.0


def plain_run(bench: Bench, seconds: int):
    bench.setup_once()  # untimed: fills the bytecode and page caches
    bench.run_pass()  # warm-up: caches fill, lazy set-up finishes
    records, setup = bench.measure(seconds)
    # Each op's median over the passes, summed over the ops: one op's slow
    # moment in a pass does not carry the rest of that pass with it.
    op_ref = [median([r.ref_ops[i] for r in records]) for i in range(len(bench.ops))]
    cli = [op.bucket != "library_s" for op in bench.ops]
    values = {
        "pass_ref": sum(op_ref),
        "cli_ref": sum(x for x, c in zip(op_ref, cli) if c),
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "pass_s": [r.seconds for r in records],
        "cli_s": [r.seconds - r.buckets["library_s"] for r in records],
        "pass_ref": [sum(r.ref_ops) for r in records],
        "cli_ref": [sum(x for x, c in zip(r.ref_ops, cli) if c) for r in records],
        "setup_s": setup,
    }
    extra = {b: median([r.buckets[b] for r in records]) for b in BUCKETS}
    return values, samples, extra


def traced_run(bench: Bench, seconds: int, modules: dict):
    """Alternate untraced and traced passes, so both see the same machine state."""
    from spans import Tracer, self_times, write_tsv

    bench.run_pass()  # warm-up
    tracer = Tracer()
    plain: list[PassRecord] = []
    traced: list[PassRecord] = []
    per_pass = []
    while (sum(r.seconds for r in plain + traced) < seconds
           or len(traced) < MIN_TRACE_PASSES) and time.monotonic() < bench.deadline:
        plain.append(bench.run_pass())
        bench.repeat_one(plain[-1])
        for module, attr, count in TRACED:
            tracer.wrap(modules[module], attr, span_name(module, attr), count)
        try:
            first_span = len(tracer.spans)
            tracer.counts.clear()
            traced.append(bench.run_pass(tracer))
            row = {f"{k}_s": v for k, v in self_times(tracer.spans[first_span:]).items()}
            row.update(tracer.counts)
            row["trace.spans"] = len(tracer.spans) - first_span
            per_pass.append(row)
            bench.repeat_one(traced[-1], tracer)
        finally:
            tracer.unwrap_all()
    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    write_tsv(tracer.spans, out_dir / f"{bench.workload}.tsv")

    values = {b: median([r.buckets[b] for r in plain]) for b in BUCKETS}
    values["trace.overhead_s"] = median([r.seconds for r in traced]) - median([r.seconds for r in plain])
    for name in {k for row in per_pass for k in row}:
        values[name] = median([row.get(name, 0) for row in per_pass])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eqtie" / "__init__.py").is_file():
        print(f"error: eqtie sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = []
        for name in WORKLOADS:
            print(f"== {name}", flush=True)
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            codes.append(subprocess.run(cmd).returncode)
        return max(codes)

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import eqtie
    from eqtie import autsearch, cli, designs, layer, permcore, specio

    if Path(eqtie.__file__).resolve().parent != (SRC / "eqtie").resolve():
        print(f"error: imported eqtie from {eqtie.__file__}, not {SRC}", file=sys.stderr)
        return 2
    modules = {"cli": cli, "specio": specio, "permcore": permcore, "designs": designs,
               "layer": layer, "autsearch": autsearch}
    end_to_end, per_layer = load_benchmark_metrics()
    signal.signal(signal.SIGALRM, _on_alarm)

    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        bench = Bench(args.workload, args.seed, work, modules)
        if args.trace:
            values = traced_run(bench, args.seconds, modules)
            declared = per_layer
        else:
            values, samples, extra = plain_run(bench, args.seconds)
            declared = end_to_end
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_frac = bench.failed / max(bench.attempted, 1)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {bench.attempted}  failed {bench.failed}  failed_frac {failed_frac:.4f}")
    for reason in bench.failures[:20]:
        print(f"  FAILED {reason}")
    if not args.trace:
        for name, xs in samples.items():
            unit = "ref" if name.endswith("_ref") else "s"
            print(f"  {name:<14} {values.get(name, median(xs)):.4f} {unit}  per pass or run: "
                  f"median {median(xs):.4f}  min {min(xs, default=0):.4f}  "
                  f"max {max(xs, default=0):.4f}  n={len(xs)}")
        print(f"  {'peak_rss_mb':<14} {values['peak_rss_mb']:.1f} MB")
        for name, v in extra.items():
            if v:
                print(f"  {name:<14} median {v:.4f} s per pass")
    else:
        for m in per_layer:
            print(f"  {m['name']:<40} {values.get(m['name'], 0):.6g} {m['unit']}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
