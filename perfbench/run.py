"""asmice benchmark: run one workload, check its answers, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload enumerate|verify|specialize|all
                             [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` the run times set-up in a fresh interpreter (import
asmice, build the inputs) ``SETUP_SAMPLES`` times, then makes a fixed
number of untraced passes over the workload's job list (``PASSES``: about
30 s of work each), and reports end-to-end metrics: ``ref_wall_s``
(median pass time), ``setup_s`` (median set-up) and ``peak_rss_mb``.
Both times are in reference seconds: each is measured together with a
machine-speed probe and rescaled to a core of fixed speed (see
``speed.py``), because the speed of a core on a shared machine drifts by
more than a regression bound over minutes.  The raw
wall times are printed and recorded next to them.  With ``--trace 1`` it
makes one untraced and then one traced pass, and reports the per-layer
metrics of the traced pass plus ``trace.overhead_s`` (traced pass minus
untraced pass, in reference seconds); the spans go to
``.bench_out/spans-<workload>.tsv``.

Every pass is checked: each job's answer against an independent formula
or its own pass flag, and the digest of the canonical answers against
``perfbench/expected.json``.  A job that raises counts as failed and the
run goes on.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list each metric with its unit, ``fail_ratio`` and the run's metadata.

``--workload all`` runs every workload one after another, each in its
own process, and prints one table.

Standard library only.  Passes run in this process on one thread; only
set-up is timed in child interpreters.  The workloads use fixed job lists
(see ``workloads.py``), so ``--seed`` is recorded but changes no input.
``--seconds`` is part of the benchmark's calling convention and is
recorded, but sizes nothing: the pass counts are fixed, so two commits
are always measured on the same number of passes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe, reference_s

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9
#: untraced passes per run: about 30 s of work on a 2-CPU cloud VM
PASSES = {"enumerate": 7, "verify": 1, "specialize": 1}

#: kinds of work the speed probe samples during each workload's passes
#: (see speed.py): the kinds whose slowdown tracked the workload's own
#: across the machine's speed swings
PROBES = {"enumerate": ("interpreter", "bigint"),
          "verify": ("interpreter", "bigint"),
          "specialize": ("objects",)}
SETUP_KINDS = ("interpreter", "bigint")

# Set-up as a user pays it: a fresh interpreter imports asmice and builds
# the workload's inputs.  Interpreter start-up, which asmice does not
# control, is left out.  It prints its time and speed samples as JSON.
SETUP_PROBE = """
import sys, time
sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1] + '/perfbench']
from speed import SpeedProbe
with SpeedProbe(sys.argv[3].split(',')) as probe:
    t0 = time.perf_counter()
    import asmice, workloads
    workloads.build(sys.argv[2])
    elapsed = time.perf_counter() - t0
import json
print(json.dumps([elapsed, probe.samples]))
"""


def _load_program():
    """Put this checkout's asmice sources on sys.path, or exit 2."""
    if not (ROOT / "src" / "asmice" / "__init__.py").is_file():
        print(f"run.py: no asmice sources under {ROOT / 'src'}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def metadata(seed):
    import workloads
    numpy = sys.modules.get("numpy")
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__ if numpy else "not imported",
        "numba_imports": "numba" in sys.modules,
        "seed": seed,
        "seed_changes_inputs": False,
        "verify_suite_seed": workloads.VERIFY_SUITE_SEED,
    }


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------- passes ----------

def run_pass(jobs, tracer=None):
    """Run every job once, with `tracer` installed if one is given;
    returns [(returned, result or traceback)]."""
    outcomes = []
    with tracer or contextlib.nullcontext():
        for job in jobs:
            try:
                if tracer is None:
                    result = job.run()
                else:
                    result = tracer.span(job.group, job.run)
            except (Exception, SystemExit):
                outcomes.append((False, traceback.format_exc()))
            else:
                outcomes.append((True, result))
    return outcomes


def check_pass(jobs, outcomes):
    """(failed job count, canonical answers) of one pass."""
    import workloads
    failed = 0
    canonical = []
    for job, (returned, result) in zip(jobs, outcomes):
        ok, canon = False, None
        if returned:
            try:
                ok, canon = job.check(result)
            except Exception:
                result = traceback.format_exc()
            else:
                result = f"wrong answer {canon!r}"
        if not ok:
            failed += 1
            print(f"FAILED {job.name}: {result}".rstrip(), file=sys.stderr)
        canonical.append(canon)
    return failed, workloads.digest(canonical)


def measure_setup(workload):
    """[(raw seconds, reference seconds)] of SETUP_SAMPLES set-ups."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(ROOT),
                                workload, ",".join(SETUP_KINDS)],
                               cwd=ROOT, check=True, stdout=subprocess.PIPE,
                               text=True)
        elapsed, probe = json.loads(child.stdout)
        samples.append((elapsed, reference_s(elapsed, probe)))
    return samples


def checked_passes(jobs, tracers, kinds):
    """One pass per entry of `tracers` (None: untraced), each under the
    speed probe of `kinds`; returns ([(raw seconds, reference seconds)]
    per pass, failed jobs, answer digests)."""
    passes, failed, digests = [], 0, set()
    for tracer in tracers:
        with SpeedProbe(kinds) as probe:
            t0 = time.perf_counter()
            outcomes = run_pass(jobs, tracer)
            elapsed = time.perf_counter() - t0
        passes.append((elapsed, probe.reference_s(elapsed)))
        f, d = check_pass(jobs, outcomes)
        failed += f
        digests.add(d)
    return passes, failed, digests


def layer_metrics(tracer, untraced_s, traced_s):
    stats = tracer.aggregate()

    def named(name, key):
        return stats[name][key] if name in stats else 0.0

    def layer(prefix, key):
        return sum(s[key] for name, s in stats.items()
                   if name.startswith(prefix + "."))

    mul = "laurent.LaurentPoly.__mul__"
    div = "laurent.divide_exact"
    eq = "laurent.RatFunc.__eq__"
    div_calls = named(div, "calls")
    m = {
        "cli.table_s": named("cli.table", "total_s"),
        "cli.bseq_s": named("cli.bseq", "total_s"),
        "cli.count_s": named("cli.count", "total_s"),
        "transfer.calls": named("transfer.transfer_count", "calls"),
        "transfer.busy_s": layer("transfer", "busy_s"),
        "transfer.n14_s": tracer.total_s("transfer.transfer_count", work=14),
        "intpoly.calls": layer("intpoly", "calls"),
        "intpoly.busy_s": layer("intpoly", "busy_s"),
        "formulas.self_s": layer("formulas", "self_s"),
        "asm.busy_s": layer("asm", "busy_s"),
        "verify.items": layer("verify", "calls"),
    }
    for suite in ("ybe", "ik", "cauchy", "sdet", "lemmas", "chain"):
        m[f"verify.{suite}_s"] = named(f"verify.{suite}", "total_s")
    m.update({
        "izergin.ik_z_calls": named("izergin.ik_z", "calls"),
        "izergin.self_s": layer("izergin", "self_s"),
        "sixvertex.z_brute_calls": named("sixvertex.z_brute", "calls"),
        "sixvertex.self_s": layer("sixvertex", "self_s"),
        "ybe.self_s": layer("ybe", "self_s"),
        "laurent.mul_calls": named(mul, "calls"),
        "laurent.mul_self_s": named(mul, "self_s"),
        "laurent.mul_term_pairs": named(mul, "work"),
        "laurent.div_calls": div_calls,
        "laurent.div_self_s": named(div, "self_s"),
        "laurent.div_ok_ratio": (named(div, "ok") / div_calls
                                 if div_calls else 0.0),
        "matrices.det_calls": named("matrices.det_exact", "calls"),
        "matrices.self_s": layer("matrices", "self_s"),
        "dets.self_s": layer("dets", "self_s"),
        "laurent.ratfunc_eq_calls": named(eq, "calls"),
        "laurent.ratfunc_eq_self_s": named(eq, "self_s"),
        "cyclotomic.mul_calls": named("cyclotomic.Cyclotomic.__mul__",
                                      "calls"),
        "cyclotomic.add_calls": named("cyclotomic.Cyclotomic.__add__",
                                      "calls"),
        "cyclotomic.self_s": layer("cyclotomic", "self_s"),
        "brackets.self_s": layer("brackets", "self_s"),
        "chain.ik_eps_ratfunc_s": named("chain.ik_eps_ratfunc", "total_s"),
        "chain.a_via_chain_s": named("chain.a_via_chain", "total_s"),
        "chain.self_s": layer("chain", "self_s"),
        "trace.overhead_s": traced_s - untraced_s,
    })
    metrics = {}
    for name, value in m.items():
        unit = unit_of(name)
        metrics[name] = {"value": int(value) if unit == "count" else value,
                         "unit": unit}
    return metrics


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------- one workload ----------

def run_workload(workload, seed, seconds, trace):
    """Returns the result object; prints the human-readable lines."""
    import workloads
    from tracing import Tracer

    meta = {**metadata(seed), "seconds_arg": seconds}
    expected = json.loads((BENCH / "expected.json").read_text())
    setups = [] if trace else measure_setup(workload)
    jobs = workloads.build(workload)
    if trace:
        tracer = Tracer()
        passes, failed, digests = checked_passes(jobs, [None, tracer],
                                                 PROBES[workload])
        metrics = layer_metrics(tracer, passes[0][1], passes[1][1])
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}.tsv")
    else:
        passes, failed, digests = checked_passes(
            jobs, [None] * PASSES[workload], PROBES[workload])
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "ref_wall_s": {"value": statistics.median(r for _, r in passes),
                           "unit": "s"},
            "setup_s": {"value": statistics.median(r for _, r in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }

    problems = []
    if digests != {expected[workload]}:
        problems.append(f"answer digest {sorted(digests)} != "
                        f"recorded {expected[workload]}")
    if workload == "verify" and len(jobs) != expected["verify_items"]:
        problems.append(f"{len(jobs)} verify items, recorded "
                        f"{expected['verify_items']}")
    for p in problems:
        print(f"INCORRECT {workload}: {p}", file=sys.stderr)

    attempted = len(jobs) * len(passes)
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": workload, "trace": trace, "meta": meta,
              "passes_raw_ref_s": passes, "setups_raw_ref_s": setups,
              "digests": sorted(digests), **result}
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{workload}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"meta: {json.dumps(meta)}")
    print(f"{workload}: " + ("1 untraced and 1 traced pass" if trace else
                             f"{len(passes)} untraced passes")
          + f" of {len(jobs)} jobs")
    for name, mv in metrics.items():
        print(f"  {name:28s} {mv['value']:>14.6g} {mv['unit']}")
    if not trace:
        for name, samples in (("raw_wall_s", passes),
                              ("raw_setup_s", setups)):
            raw = statistics.median(r for r, _ in samples)
            print(f"  {name:28s} {raw:>14.6g} s (not speed-rescaled)")
    print(f"  {'fail_ratio':28s} {failed / attempted:>14.6g} "
          f"({failed}/{attempted})")
    return result


def run_all(seed, trace):
    """Each workload in its own process; one table of every metric."""
    import workloads
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"run.py: workload {workload} exited {proc.returncode}",
                  file=sys.stderr)
            raise SystemExit(2)
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, mv in res["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = mv
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("enumerate", "verify", "specialize",
                                 "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="recorded only; the pass counts are fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    if args.workload == "all":
        result = run_all(args.seed, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
