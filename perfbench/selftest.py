"""The benchmark's own self-test (not part of the repository's test suite).

    python3 perfbench/selftest.py

1. Every output check passes a genuine output and rejects a corrupted one:
   a perturbed stationary vector, a wrong verdict, a wrong reduced kappa,
   wrong reduced payoffs, an ineffective or off-pin verify report, and a
   Monte-Carlo run whose pinned payoff left its bound.
2. BENCHMARK.json lists exactly the metrics run.py reports.
3. Every workload runs at a tiny size, untraced and traced, with no failed op.
4. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.
Exits 0 when all pass.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import fixtures  # noqa: E402
import spans  # noqa: E402
from run import END_TO_END  # noqa: E402

FAILURES = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def rejects(op, code, path, corrupt, what):
    """Rewrite an op's output with corrupt(doc) and expect its check to fail."""
    with open(path) as fh:
        good = json.load(fh)
    doc = json.loads(json.dumps(good))
    corrupt(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    try:
        op.check(code)
        expect(False, f"rejects {what}")
    except checks.CheckFailed:
        expect(True, f"rejects {what}")
    finally:
        with open(path, "w") as fh:
            json.dump(good, fh)


def first_op(workload, code_of, want=lambda op: True):
    """Run ops until one satisfies want(op) after running; (op, exit code)."""
    for i in range(100):
        op = workload.op(i)
        code = code_of(op.argv)
        if want(op):
            return op, code
    raise RuntimeError(f"no suitable op in {workload.name}")


def check_checks(work):
    from zdkit.cli import main as run

    def read(path):
        with open(path) as fh:
            return json.load(fh)

    def passes(op, code, what):
        try:
            op.check(code)
            expect(True, f"accepts genuine {what}")
        except checks.CheckFailed as exc:
            expect(False, f"accepts genuine {what}: {exc}")

    def sub(name):
        d = os.path.join(work, name)
        os.makedirs(d)
        return d

    # analyze-sparse
    wl = fixtures.analyze_sparse(7, "tiny", sub("analyze"))
    op, code = first_op(wl, run, lambda op: read(op.outputs[0])["stationary"])
    out = op.outputs[0]
    passes(op, code, "primitive analyze report")

    def perturb(doc):
        doc["stationary"][0] += 1e-6
        doc["stationary"][1] -= 1e-6
    rejects(op, code, out, perturb, "a perturbed stationary vector")

    def negative(doc):
        doc["stationary"][0] = -doc["stationary"][0]
    rejects(op, code, out, negative, "a stationary vector with a negative entry")
    rejects(op, code, out, lambda d: d.update(primitive=False),
            "a flipped primitive verdict")
    rejects(op, code, out, lambda d: d.update(rank_defect=2),
            "a wrong rank defect")
    rejects(op, code, out, lambda d: d.update(witness_s=d["witness_s"] + 1),
            "a witness that is not the least power")
    op, code = first_op(wl, run, lambda op: read(op.outputs[0])["rank_defect"] > 1)
    passes(op, code, "analyze report of a chain with several closed classes")
    rejects(op, code, op.outputs[0], lambda d: d.update(rank_defect=1),
            "a rank defect below the closed-class count")

    # neg-sweep
    wl = fixtures.neg_sweep(7, "tiny", sub("neg"))
    op, code = first_op(wl, run)
    reduced = op.outputs[0]
    passes(op, code, "neg outputs")

    def wrong_kappa(doc):
        doc["strategy_counts"][1] += 1
    rejects(op, code, reduced, wrong_kappa, "a wrong reduced kappa")

    def wrong_payoff(doc):
        doc["payoffs"][1][0] += 1.0
    rejects(op, code, reduced, wrong_payoff, "wrong reduced opponent payoffs")

    def irrational(doc):
        doc["rows"][0][0] = 1.5
        doc["rows"][1][0] = -0.5
    rejects(op, code, op.outputs[1], irrational, "an irrational design")

    # verify-dense
    wl = fixtures.verify_dense(7, "tiny", sub("verify"))
    op, code = first_op(wl, run)
    out = op.outputs[0]
    passes(op, code, "verify report")

    def ineffective(doc):
        doc["reports"][0]["effective"] = False
    rejects(op, code, out, ineffective, "an ineffective verify report")

    def off_pin(doc):
        doc["reports"][0]["expected_payoffs"][0] += 1e-6
    rejects(op, code, out, off_pin, "a verify report off its pin by 1e-6")

    # simulate-mc
    wl = fixtures.simulate_mc(7, "tiny", sub("simulate"))
    op, code = first_op(wl, run)
    out = op.outputs[0]
    passes(op, code, "simulate report")

    with open(op.argv[op.argv.index("--game") + 1]) as fh:
        pinned = json.load(fh)["payoffs"][0]

    def drift(doc):
        # all mass on the profile where the pinned player earns most
        doc["empirical"] = [0.0] * len(pinned)
        doc["empirical"][pinned.index(max(pinned))] = 1.0
    rejects(op, code, out, drift, "an empirical payoff outside its bound")
    rejects(op, code, out, lambda d: d.update({"pass": not d["pass"]}),
            "an exit code that contradicts the z-verdict")


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    expect(listed == spans.PER_LAYER,
           "BENCHMARK.json per_layer matches the traced run's metrics")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect(e2e == END_TO_END,
           "BENCHMARK.json end_to_end matches the untraced run's metrics")
    expect([w["name"] for w in bench["workloads"]] == list(fixtures.WORKLOADS),
           "BENCHMARK.json workloads match fixtures.WORKLOADS")
    return bench


def run_tiny(bench):
    for name in fixtures.WORKLOADS:
        for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 name, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            ok = proc.returncode == 0
            if ok:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                ok = (res["correct"] and res["failed"] == 0
                      and res["attempted"] >= 1
                      and set(res["metrics"]) == {m["name"] for m in bench[listed]})
            expect(ok, f"tiny {name} --trace {trace} runs clean"
                   + ("" if ok else f":\n{proc.stderr}"))


def run_bare(work):
    bare = os.path.join(work, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "neg-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the sources run.py exits non-zero and prints no result")


def main():
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-",
                            dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        check_checks(work)
        bench = check_benchmark_json()
        run_tiny(bench)
        run_bare(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
