"""What a change does to the outputs this repository reproduces, and the benchmark runs CI gates on.

    python tools/drift.py collect TREE OUT   # run TREE's code, record it in OUT
    python tools/drift.py summary DIR        # DIR/base against DIR/HEAD, or DIR/HEAD alone
    python tools/drift.py pairs BASE HEAD OUT   # time BASE against HEAD, into OUT/pairs.json
    python tools/drift.py gate               # this tree's gated runs; exit 1 unless each is correct

collect runs in one interpreter with TREE's src, tests and bench first on
sys.path, and records what TREE's code prints or raises:
* every verb on the shipped scenarios (one call through python -m) and their
  canonical rewrites, which stay byte-identical unless a change says why;
* each shipped sweep's op_a/op_b iterations: sweep-tau starts each point from
  the last plan, so a change to that start or the step rule moves it quietly;
* a hash of each seed-1 call of the four benchmark workloads, and of the
  seed-2 and seed-3 calls of the two that run admm;
* run_admm on KNOWN_LIMITS and the binding-cap networks: exit or rounds, the
  aggregate error against waterfill (or op_b) relative to the budget, and how
  many times it called admm.marginal_perceived_cost, so that a change to the
  target Newton shows even where the rounds stay; and how many of its trace's
  objectives are nan and which RuntimeWarnings the run emits, where the trace
  scores rounds whose L overflows. A change to the round rule
  can turn an exit 5 into a quiet wrong answer. So can one to op_a's stop
  rule: where waterfill applies, each row adds solve_op_a's exit or
  iterations and aggregate error.

pairs runs each tree's own bench/run.py (RUN) on each workload of BENCHMARK.json,
one pair per seed, BASE first at odd seeds; summary adds a verdict per metric.

gate runs this tree's bench/run.py for 1 s: each workload of BENCHMARK.json
traced at seed 1, and at seeds 1-10 op_b-defect, the one workload whose target caps
bind, where op_b's spectral step and admm's balanced penalty change their paths most.
It prints each verdict, and the traced runs' PGD iterations and ADMM rounds per
round of calls; it exits 1 where a run is not correct or prints no JSON.
"""

import contextlib, csv, difflib, functools, hashlib, io, json, math, os, statistics, subprocess, sys, tempfile, warnings  # noqa: E401
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
RUN, SEEDS = "bench/run.py --workload {} --seed {} --seconds {} --trace {}", range(11, 21)
SCENARIOS = ("case_study", "discrimination", "single_edge")
VERBS = ("solve --mode op_a", "solve --mode op_b", "waterfill", "admm", "sweep-gamma", "sweep-tau")
WORKLOAD_RUNS = [(name, 1) for name in ("complete-sweep", "bounded-sparse", "consensus", "op_b-defect")]
WORKLOAD_RUNS += [(name, seed) for seed in (2, 3) for name in ("consensus", "op_b-defect")]

# README's Known limits for admm and op_a, complete: (name, loss values, supplies, family, baseline, gamma)
KNOWN_LIMITS = [(f"U {u:g} and 0.75 U, source 1, gamma 0.5", [u, 0.75 * u], [1], "exponential", 1.0, 0.5)
                for u in (1e4, 1e5, 1e6)]
KNOWN_LIMITS += [("U 1e17 and 0.75 U, source 1, gamma 0.5", [1e17, 0.75e17], [1], "exponential", 1.0, 0.5)]
KNOWN_LIMITS += [(f"U 12/9 {family} r {r:g}, source {q:g}, gamma 0.5", [12, 9], [q], family, r, 0.5)
                 for family, r in (("exponential", 1.0), ("reciprocal", 2.0)) for q in (700, 1e4, 1e10)]
KNOWN_LIMITS += [(f"U 1/0.5, source {q:g}, gamma {g:g}", [1, 0.5], [q], "exponential", 1.0, g)
                 for q, g in ((100, 0.3), (10, 0.01), (10, 0.001))]
KNOWN_LIMITS += [
    ("U 12/9/4, supplies 1e-30/5e-31, gamma 0.5", [12, 9, 4], [1e-30, 5e-31], "exponential", 1.0, 0.5),
    ("U 12/6, baseline 5e-324, source 1, gamma 0.001", [12, 6], [1], "exponential", 5e-324, 0.001),
]
KNOWN_LIMITS += [(f"U 12/6/1e-9, baseline 1e-20, source 1, gamma {g:g}", [12, 6, 1e-9], [1], "exponential", 1e-20, g)
                 for g in (0.01, 0.1)]
KNOWN_LIMITS += [("U 1.5e308 and 1e300, baseline 1e-300, source 1e-300, gamma 0.5", [1.5e308, 1e300], [1e-300],
                  "exponential", 1e-300, 0.5)]


def run_cli(tree, argv, module=False):
    """The exit (or what was raised), stdout and stderr of cli.main(argv), or of
    ``python -m secalloc.cli`` with ``module``; TREE's path reads TREE."""
    if module:
        env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
        done = subprocess.run([sys.executable, "-m", "secalloc.cli", *argv], capture_output=True, text=True, env=env)
        outcome, stdout, stderr = f"exit {done.returncode}", done.stdout, done.stderr
    else:
        from secalloc import cli
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                outcome = f"exit {cli.main(argv)}"
            except SystemExit as exc:
                outcome = f"exit {exc.code}"
            except Exception as exc:
                outcome = f"raised {type(exc).__name__}: {exc}"
        stdout, stderr = stdout.getvalue(), stderr.getvalue()
    return [text.replace(tree, "TREE") for text in (outcome, stdout, stderr)]


@contextlib.contextmanager
def counting(module, names, field=None):
    """Wrap each of MODULE's functions NAMES in the block, adding to the
    yielded [count] 1 per call (a call that raises too), or with FIELD, the
    FIELD of each result; the originals are back however the block ends."""
    originals, count = {name: getattr(module, name) for name in names}, [0]

    def counted(function, *args, **kwargs):
        count[0] += field is None
        result = function(*args, **kwargs)
        count[0] += getattr(result, field) if field else 0
        return result

    vars(module).update({name: functools.partial(counted, function) for name, function in originals.items()})
    try:
        yield count
    finally:
        vars(module).update(originals)


def shipped(tree):
    from secalloc import centralized, scenario_io

    lines = []
    for scenario in SCENARIOS:
        path = os.path.join(tree, "scenarios", f"{scenario}.yaml")
        for verb in VERBS:
            name, module = f"{scenario}.{verb.replace(' ', '_')}", (scenario, verb) == (SCENARIOS[0], VERBS[0])
            with counting(centralized, ("solve_op_a", "solve_op_b"), "iterations") as iterations:
                outcome, stdout, stderr = run_cli(tree, [*verb.split(), path, "-o", f"{name}.out"], module)
            Path(f"{name}.log").write_text(f"{stdout}{stderr}{outcome}\n")
            if verb.startswith("sweep"):
                lines.append(f"{name} {outcome}, {iterations[0]} iterations")
        scenario_file = scenario_io.parse_scenario(Path(path).read_text(encoding="utf-8"))
        Path(f"{scenario}.written.yaml").write_text(scenario_io.write_scenario(scenario_file))
    return lines


def workload_calls(tree):
    import workloads

    lines = []
    with tempfile.TemporaryDirectory() as work:
        for name, seed in WORKLOAD_RUNS:
            for call in workloads.build(name, seed, os.path.join(work, f"{name}-{seed}"), tree):
                outcome, _, stderr = run_cli(tree, call.argv)
                digest = hashlib.sha256(f"{outcome}\n{stderr}".replace(work, "WORK").encode())
                for path in map(Path, call.outputs):
                    digest.update(f"\n{path.name}\n".encode() + (path.read_bytes() if path.exists() else b""))
                lines.append(f"{name}:seed{seed}:{call.scenario_id}:{call.verb.replace(' ', '_')} {digest.hexdigest()}")
    return lines


def known_limits(tree):
    from secalloc import admm, centralized, errors, model, scenario_io, waterfill
    from test_admm_binding_caps import NETWORKS

    def complete(losses, supplies, family, baseline):
        prob = model.AttackProbabilityModel(family, baseline)
        return model.TransportNetwork.complete(
            tuple(model.TargetSpec(f"t{k + 1}", float(u), prob) for k, u in enumerate(losses)),
            tuple(model.SourceSpec(f"s{k + 1}", float(q)) for k, q in enumerate(supplies)))

    cases = [(name, complete(*network), gamma) for name, *network, gamma in KNOWN_LIMITS]
    scenarios = {name: scenario_io.parse_scenario(text) for name, text in NETWORKS.items()}
    cases += [(f"binding caps {name}", s.network, s.behavior.gamma) for name, s in scenarios.items()]

    def outcome(solve, unit):  # on the loop's network, against its reference: the row's text and the trace
        try:
            report = solve(network, behavior)
        except errors.ConvergenceError as exc:
            return f"exit 5 after {len(exc.trace)} {unit} ({exc})", exc.trace
        except Exception as exc:
            return f"{type(exc).__name__} ({exc})", []
        error = max(abs(report.plan.aggregate_at_target(t) - a) for t, a in reference.items())
        text = f"{report.iterations} {unit}, aggregates {error / network.total_supply():.2g} of the budget off {against}"
        return text, report.residual_trace

    lines = []
    for name, network, gamma in cases:
        behavior = model.BehavioralModel(gamma)
        try:
            try:
                reference, against = waterfill.waterfill_allocate(network, behavior).final_aggregates, "waterfill"
            except errors.PreconditionError:
                plan = centralized.solve_op_b(network, behavior).plan
                reference, against = {t.id: plan.aggregate_at_target(t.id) for t in network.targets}, "op_b"
        except Exception as exc:
            lines.append(f"- {name}: {type(exc).__name__} ({exc})")
            continue
        with counting(admm, ("marginal_perceived_cost",)) as evaluations, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            text, trace = outcome(admm.run_admm, "rounds")
        nans = sum(math.isnan(record.objective) for record in trace)
        warned = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        row = (f"- {name}: {text}, {evaluations[0]} marginal evaluations, {nans} nan objectives, "
               f"{len(warned)} RuntimeWarning{'s' * (len(warned) != 1)}" + "".join(f" ({m})" for m in dict.fromkeys(warned)))
        if against == "waterfill":
            row += f"; op_a {outcome(centralized.solve_op_a, 'iterations')[0]}"
        lines.append(row)
    return lines


def collect(tree, out):
    tree, out = os.path.abspath(tree), Path(out).absolute()
    sys.path[:0] = [os.path.join(tree, part) for part in ("src", "tests", "bench")]
    (out / "reports").mkdir(parents=True)
    stopped = ""
    for part in (shipped, workload_calls, known_limits):
        try:
            with contextlib.chdir(out / "reports"):  # the shipped verbs' outputs are named as they print
                lines = part(tree)
        except Exception as exc:  # TREE's code stopped the part: a finding too
            lines, stopped = [], stopped + f"{part.__name__} stopped: {type(exc).__name__}: {exc}\n"
        (out / f"{part.__name__}.txt").write_text("".join(f"{line}\n" for line in lines))
    (out / "stopped.txt").write_text(stopped)


def pairs(base, head, out):
    spec, trees, blocks = json.loads(BENCHMARK.read_text()), {"parent": base, "change": head}, {}
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs = {side: {} for side in trees}  # by seed: the JSON on the run's last line, where that is JSON
        for seed in SEEDS:
            for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                if (run := bench(trees[side], workload, seed)) is not None:  # else not correct, and left out
                    runs[side][seed] = run
        reported = [run for side in runs.values() for run in side.values()]
        correct = len(reported) == 2 * len(SEEDS) and all(run["correct"] is True for run in reported)
        failed = {side: sum(run["failed"] for run in runs[side].values()) for side in trees}
        blocks[workload] = {"seeds": list(SEEDS), "correct": correct, "failed": failed}
        for name, better in ((metric["name"], metric["better"]) for metric in spec["end_to_end"]):
            values = ({seed: round(run["metrics"][name]["value"], 4) for seed, run in runs[side].items()} for side in trees)
            blocks[workload][name] = timing(*values, better)
    import numpy, yaml  # noqa: E401
    cpuinfo = read(Path("/proc/cpuinfo")).splitlines()
    cpu = [line.split(":")[1].strip() for line in cpuinfo if line.startswith("model name")] or [os.uname().machine]
    machine = {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": numpy.__version__, "pyyaml": yaml.__version__,
               "with_libyaml": yaml.__with_libyaml__, "nproc": os.cpu_count(), "cpu": cpu[0]}
    lines = {side: sum(path.read_bytes().count(b"\n") for path in Path(tree, "src", "secalloc").glob("*.py"))
             for side, tree in trees.items()}
    Path(out).mkdir(parents=True, exist_ok=True)
    Path(out, "pairs.json").write_text(json.dumps({
        "command": f"python3 {RUN.format('<workload>', '<seed>', 5, 0)}", "pairs": "seeds 11-20, one pair per seed and "
        "workload; parent first at odd seeds, change first at even seeds", "machine": machine, "src_lines": lines,
        "end_to_end": blocks}, indent=2) + "\n")


def bench(tree, workload, seed, seconds=5, trace=0):
    """The JSON that TREE's own bench/run.py prints on its last line, or None where that is no JSON."""
    done = subprocess.run([sys.executable, *RUN.format(workload, seed, seconds, trace).split()],
                          cwd=tree, capture_output=True, text=True)
    with contextlib.suppress(IndexError, ValueError):
        return json.loads(done.stdout.splitlines()[-1])
    return None


def gate():
    traced = [(entry["name"], 1, 1) for entry in json.loads(BENCHMARK.read_text())["workloads"]]
    correct = []
    for workload, seed, trace in traced + [("op_b-defect", seed, 0) for seed in range(1, 11)]:
        run = bench(str(BENCHMARK.parent), workload, seed, 1, trace)
        correct.append(run is not None and run["correct"] is True)
        print(f"{workload} seed {seed}: " + ("no JSON on the last line of stdout" if run is None else
              f"{'' if correct[-1] else 'not '}correct, {run['failed']} of {run['attempted']} calls failed"))
        for name in ("centralized.pgd_iterations", "admm.rounds") if trace and run else ():
            print(f"- {workload} {name}: {run['metrics'][name]['value']:g}")
    return 0 if all(correct) else 1


def timing(parent, change, better):
    """A metric's block from each side's runs by seed; None where a side has under two, too few for quartiles."""
    if min(len(parent), len(change)) < 2:
        return None
    block, sign = {}, 1 if better == "lower" else -1
    for side, runs in (("parent", parent), ("change", change)):
        q1, median, q3 = (round(q, 4) for q in statistics.quantiles(runs.values(), n=4))
        block[side] = {"median": median, "q1": q1, "q3": q3, "runs": list(runs.values())}
    block["change_better_pairs"] = sum(sign * (parent[seed] - change[seed]) > 0 for seed in parent.keys() & change.keys())
    block["median_ratio"] = round(block["change"]["median"] / block["parent"]["median"], 3)
    return block


def verdict(times, bound, better):
    """Worse beyond the bound; else unresolved where the parent's q1-q3 spread is wider than the bound,
    unless every change run beats every parent run; else within the bound."""
    parent, change, sign = times["parent"], times["change"], 1 if better == "lower" else -1
    if sign * (change["median"] - parent["median"]) > bound * parent["median"]:
        return "worse beyond the bound"
    beaten = max(sign * run for run in change["runs"]) < min(sign * run for run in parent["runs"])
    return "unresolved" if parent["q3"] - parent["q1"] > bound * parent["median"] and not beaten else "within the bound"


def summary(root):
    if Path(root, "pairs.json").exists():
        doc, metrics = json.loads(Path(root, "pairs.json").read_text()), json.loads(BENCHMARK.read_text())["end_to_end"]
        print(f"Paired timing, parent -> change medians ({doc['command']}; {doc['pairs']}):")
        for workload, block in doc["end_to_end"].items():
            print(f"- {workload}: {'every' if block['correct'] else 'not every'} run correct, "
                  f"failed calls {block['failed']}")
            for metric in metrics:
                times = block[metric["name"]]
                print(f"  - {metric['name']} (bound {metric['bound']:g}): " + (
                    "fewer than two runs on a side" if times is None else
                    f"{times['parent']['median']:g} -> {times['change']['median']:g} {metric['unit']}, ratio "
                    f"{times['median_ratio']:g}, change better in {times['change_better_pairs']} of "
                    f"{len(block['seeds'])} pairs: {verdict(times, metric['bound'], metric['better'])}"))
    trees = [tree for tree in ("base", "HEAD") if (Path(root) / tree).is_dir()]
    if "HEAD" not in trees:  # DIR holds pairs.json alone
        return
    lines = {(tree, part): read(Path(root, tree, f"{part}.txt")).splitlines()
             for tree in trees for part in ("stopped", "shipped", "workload_calls", "known_limits")}
    for tree in trees:
        print("".join(f"At {tree}, {line}\n" for line in lines[tree, "stopped"]), end="")
    print("ADMM on the Known-limits networks, HEAD:", *lines["HEAD", "known_limits"], sep="\n")
    if len(trees) == 2:  # base's rows only where they differ from HEAD's row of the same name
        head = {row.split(": ", 1)[0]: row for row in lines["HEAD", "known_limits"]}
        base = lines["base", "known_limits"]
        moved = [row for row in base if head.get(row.split(": ", 1)[0]) != row]
        if moved or len(base) != len(head):
            count = f"{len(base)} row{'s' * (len(base) != 1)}"
            print(f"ADMM on the Known-limits networks, base ({count}), where it differs from HEAD:", *moved, sep="\n")
        else:
            print(f"ADMM on the Known-limits networks, base: all {len(base)} rows match HEAD's")
    runs = {tree: dict(line.split(" ", 1) for line in lines[tree, "shipped"]) for tree in trees}
    print("Sweep drift on the shipped scenarios (op_a iterations for sweep-gamma, op_b for sweep-tau):")
    for sweep in runs["HEAD"]:
        print(f"- {sweep}: " + ", ".join(f"{tree} {runs[tree][sweep]}" for tree in trees if sweep in runs[tree]))
        if len(trees) == 2:
            print("  - " + column_change(*(read(Path(root, tree, "reports", f"{sweep}.out")) for tree in trees)))
    if len(trees) < 2:
        return
    reports = {name: [read(Path(root, tree, "reports", name)) for tree in trees]
               for tree in trees for name in os.listdir(Path(root, tree, "reports"))}
    differ = sorted(name for name, (base, head) in reports.items() if base != head)
    if not differ:
        print("Shipped-scenario outputs: byte-identical to the base commit")
    else:
        print("Shipped-scenario outputs differ from the base commit:", *(f"- {name}" for name in differ), sep="\n")
        diff = [line.rstrip("\n") for name in differ for line in difflib.unified_diff(
            *(text.splitlines(True) for text in reports[name]), f"base/{name}", f"HEAD/{name}")]
        print("```diff", *diff[:400], "```", sep="\n")
    base, head = (dict(line.split(" ", 1) for line in lines[tree, "workload_calls"]) for tree in trees)
    changed = sorted(call for call in base.keys() | head.keys() if base.get(call) != head.get(call))
    if not changed:
        print(f"Workload calls: all {len(head)} byte-identical to the base commit")
    else:
        print("Workload calls whose outputs differ from the base commit:", "```", *changed, "```", sep="\n")


def column_change(base, head):
    """The largest relative change in each column from one CSV text to another."""
    base, head = (list(csv.reader(io.StringIO(text))) for text in (base, head))
    if not base or base[:1] != head[:1] or len(base) != len(head):
        return f"CSV shape moved: base {base[:1]} and {len(base) - 1} rows, HEAD {head[:1]} and {len(head) - 1} rows"

    def change(a, b):
        try:
            a, b = float(a), float(b)
        except ValueError:  # a cell that is no number counts 1 where it moved
            return float(a != b)
        return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))

    moved = [max((change(b[k], h[k]) for b, h in zip(base[1:], head[1:])), default=0.0) for k in range(len(head[0]))]
    return "largest relative change: " + ", ".join(f"{name} {value:.2g}" for name, value in zip(head[0], moved))


def read(path):
    """A file's text, "" where it is missing."""
    return path.read_text(errors="replace") if path.exists() else ""


if __name__ == "__main__":
    command, *paths = sys.argv[1:]
    sys.exit({"collect": collect, "summary": summary, "pairs": pairs, "gate": gate}[command](*paths))
