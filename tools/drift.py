"""What a change does to the outputs this repository reproduces; reported, never gated.

    python tools/drift.py collect TREE OUT   # run TREE's code, record it in OUT
    python tools/drift.py summary DIR        # DIR/base against DIR/HEAD, or DIR/HEAD alone

collect runs in one interpreter with TREE's src, tests and bench first on
sys.path, and records what TREE's code prints or raises:
* every verb on the shipped scenarios (one call through python -m) and their
  canonical rewrites, which stay byte-identical unless a change says why;
* each shipped sweep's op_a/op_b iterations: sweep-tau starts each point from
  the last plan, so a change to that start or the step rule moves it quietly;
* a hash of each seed-1 call of the four benchmark workloads, and of the
  seed-2 and seed-3 calls of the two that run admm;
* run_admm on KNOWN_LIMITS and the binding-cap networks: exit or rounds, and
  the aggregate error against waterfill (or op_b) relative to the budget. A
  change to the round rule can turn an exit 5 into a quiet wrong answer. So
  can one to op_a's stop rule: where waterfill applies, each row adds
  solve_op_a's exit or iterations and aggregate error.
"""

import contextlib, csv, difflib, functools, hashlib, io, os, subprocess, sys, tempfile  # noqa: E401
from pathlib import Path

SCENARIOS = ("case_study", "discrimination", "single_edge")
VERBS = ("solve --mode op_a", "solve --mode op_b", "waterfill", "admm", "sweep-gamma", "sweep-tau")
WORKLOAD_RUNS = [(name, 1) for name in ("complete-sweep", "bounded-sparse", "consensus", "op_b-defect")]
WORKLOAD_RUNS += [(name, seed) for seed in (2, 3) for name in ("consensus", "op_b-defect")]

# README's Known limits for admm and op_a, complete: (name, loss values, supplies, family, baseline, gamma)
KNOWN_LIMITS = [(f"U {u:g} and 0.75 U, source 1, gamma 0.5", [u, 0.75 * u], [1], "exponential", 1.0, 0.5)
                for u in (1e4, 1e5, 1e6)]
KNOWN_LIMITS += [("U 1e17 and 0.75 U, source 1, gamma 0.5", [1e17, 0.75e17], [1], "exponential", 1.0, 0.5)]
KNOWN_LIMITS += [(f"U 12/9 {family} r {r:g}, source {q:g}, gamma 0.5", [12, 9], [q], family, r, 0.5)
                 for family, r in (("exponential", 1.0), ("reciprocal", 2.0)) for q in (700, 1e4)]
KNOWN_LIMITS += [(f"U 1/0.5, source {q:g}, gamma {g:g}", [1, 0.5], [q], "exponential", 1.0, g)
                 for q, g in ((100, 0.3), (10, 0.01), (10, 0.001))]
KNOWN_LIMITS += [
    ("U 12/9/4, supplies 1e-30/5e-31, gamma 0.5", [12, 9, 4], [1e-30, 5e-31], "exponential", 1.0, 0.5),
    ("U 12/6, baseline 5e-324, source 1, gamma 0.001", [12, 6], [1], "exponential", 5e-324, 0.001),
]
KNOWN_LIMITS += [(f"U 12/6/1e-9, baseline 1e-20, source 1, gamma {g:g}", [12, 6, 1e-9], [1], "exponential", 1e-20, g)
                 for g in (0.01, 0.1)]


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


def shipped(tree):
    from secalloc import centralized, scenario_io

    iterations = [0]

    def counted(solve, *args, **kwargs):
        report = solve(*args, **kwargs)
        iterations[0] += report.iterations
        return report

    centralized.solve_op_a, centralized.solve_op_b = (
        functools.partial(counted, solve) for solve in (centralized.solve_op_a, centralized.solve_op_b))
    lines = []
    for scenario in SCENARIOS:
        path = os.path.join(tree, "scenarios", f"{scenario}.yaml")
        for verb in VERBS:
            name, iterations[0] = f"{scenario}.{verb.replace(' ', '_')}", 0
            module = (scenario, verb) == (SCENARIOS[0], VERBS[0])
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

    def outcome(solve, unit):  # on the loop's network, against its reference
        try:
            report = solve(network, behavior)
        except errors.ConvergenceError as exc:
            return f"exit 5 after {len(exc.trace)} {unit} ({exc})"
        except Exception as exc:
            return f"{type(exc).__name__} ({exc})"
        error = max(abs(report.plan.aggregate_at_target(t) - a) for t, a in reference.items())
        return f"{report.iterations} {unit}, aggregates {error / network.total_supply():.2g} of the budget off {against}"

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
        row = f"- {name}: {outcome(admm.run_admm, 'rounds')}"
        if against == "waterfill":
            row += f"; op_a {outcome(centralized.solve_op_a, 'iterations')}"
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


def summary(root):
    trees = [tree for tree in ("base", "HEAD") if (Path(root) / tree).is_dir()]
    lines = {(tree, part): read(Path(root, tree, f"{part}.txt")).splitlines()
             for tree in trees for part in ("stopped", "shipped", "workload_calls", "known_limits")}
    for tree in trees:
        print("".join(f"At {tree}, {line}\n" for line in lines[tree, "stopped"]), end="")
        print(f"ADMM on the Known-limits networks, {tree}:", *lines[tree, "known_limits"], sep="\n")
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
    {"collect": collect, "summary": summary}[command](*paths)
