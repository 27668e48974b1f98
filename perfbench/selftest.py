"""Self-test of the benchmark, on the workloads' smallest inputs.

    python3 perfbench/selftest.py

Checks that

* an unmodified pass of each workload has no failed job;
* a wrong answer injected into the program fails at least one job;
* a traced pass records calls in every layer the workload is meant to
  exercise, and none in the layers it is meant to leave idle
  (``transfer`` on ``verify`` and ``specialize``; ``LaurentPoly`` and
  ``Cyclotomic`` multiply on ``enumerate``);
* while the tracer is installed every by-name import of a traced function
  is wrapped, and after it is removed none is.

Prints one line per finding and exits 1 if there is any.
"""

from __future__ import annotations

import io
import sys
from contextlib import contextmanager, redirect_stderr
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (run.py locates and loads the program)

run._load_program()

import asmice  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

#: per-layer metrics that must be nonzero on each workload's smallest run
BUSY = {
    "enumerate": ("cli.table_s", "cli.bseq_s", "cli.count_s",
                  "transfer.calls", "transfer.busy_s", "intpoly.calls",
                  "intpoly.busy_s", "formulas.self_s", "asm.busy_s"),
    "verify": ("verify.items", "verify.ybe_s", "verify.ik_s",
               "verify.cauchy_s", "verify.sdet_s", "verify.lemmas_s",
               "verify.chain_s", "izergin.ik_z_calls", "izergin.self_s",
               "sixvertex.z_brute_calls", "sixvertex.self_s", "ybe.self_s",
               "laurent.mul_calls", "laurent.mul_self_s",
               "laurent.mul_term_pairs", "laurent.div_calls",
               "laurent.div_self_s", "laurent.div_ok_ratio",
               "matrices.det_calls", "matrices.self_s", "dets.self_s",
               "laurent.ratfunc_eq_calls", "laurent.ratfunc_eq_self_s",
               "cyclotomic.mul_calls", "cyclotomic.add_calls",
               "cyclotomic.self_s", "brackets.self_s",
               "chain.ik_eps_ratfunc_s", "chain.a_via_chain_s",
               "chain.self_s"),
    "specialize": ("laurent.mul_calls", "laurent.ratfunc_eq_calls",
                   "laurent.ratfunc_eq_self_s", "matrices.det_calls",
                   "matrices.self_s", "dets.self_s", "cyclotomic.mul_calls",
                   "cyclotomic.add_calls", "cyclotomic.self_s",
                   "brackets.self_s", "chain.ik_eps_ratfunc_s",
                   "chain.a_via_chain_s", "chain.self_s"),
}

#: per-layer metrics that must be exactly zero on each workload
IDLE = {
    "enumerate": ("laurent.mul_calls", "cyclotomic.mul_calls"),
    "verify": ("transfer.calls",),
    "specialize": ("transfer.calls",),
}

#: by-name imports the tracer must wrap
BY_NAME = {
    "det_exact": ("chain", "dets", "izergin", "verify", "matrices"),
    "divide_exact": ("matrices", "izergin", "sixvertex", "verify", "laurent"),
    "transfer_count": ("cli", "formulas", "transfer"),
}


@contextmanager
def patched(module, name, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _off_by_one(original):
    return lambda *args, **kwargs: original(*args, **kwargs) + 1


#: per workload, one program function made to return a wrong answer
INJECTIONS = {
    "enumerate": (asmice.cli, "transfer_count"),
    "verify": (asmice.verify, "a_formula"),
    "specialize": (asmice.chain, "a_via_chain"),
}


def _failures(workload):
    jobs = workloads.build(workload, "small")
    return run.check_pass(jobs, run.run_pass(jobs))[0]


def main():
    findings = []
    for workload in workloads.WORKLOADS:
        if _failures(workload):
            findings.append(f"{workload}: unmodified pass has failures")
        module, name = INJECTIONS[workload]
        with patched(module, name, _off_by_one), \
                redirect_stderr(io.StringIO()):
            if not _failures(workload):
                findings.append(f"{workload}: wrong {name} went unnoticed")

        jobs = workloads.build(workload, "small")
        tracer = Tracer()
        with tracer:
            for fname, modules in BY_NAME.items():
                for modname in modules:
                    fn = getattr(getattr(asmice, modname), fname)
                    if not hasattr(fn, "span_name"):
                        findings.append(f"{modname}.{fname} not traced")
        if run.check_pass(jobs, run.run_pass(jobs, tracer))[0]:
            findings.append(f"{workload}: traced pass has failures")
        metrics = run.layer_metrics(tracer, 0.0, 0.0)
        for metric in BUSY[workload]:
            if not metrics[metric]["value"] > 0:
                findings.append(f"{workload}: {metric} is zero")
        for metric in IDLE[workload]:
            if metrics[metric]["value"] != 0:
                findings.append(f"{workload}: {metric} = "
                                f"{metrics[metric]['value']}, want 0")

    owners = [m for key, m in sys.modules.items()
              if key.startswith("asmice.")]
    owners += [v for m in owners for v in vars(m).values()
               if isinstance(v, type) and v.__module__ == m.__name__]
    for owner in owners:
        for attr, value in vars(owner).items():
            if hasattr(value, "span_name"):
                findings.append(f"{owner.__name__}.{attr} still traced")

    for finding in findings:
        print(f"selftest: {finding}")
    print(f"selftest: {'FAILED' if findings else 'ok'}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
