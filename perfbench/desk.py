"""The desk-cli workload: whole ``python -m kernelogic`` calls.

A question is one input file. Its first answer is one ``paradox`` call
and its follow-ups are three more calls on the same file, taken in turn
from a rotation over every other subcommand and variant, alternating
``--json``. A share of the questions are malformed inputs: a parse
error (exit 2 expected), bytes that are not UTF-8 (exit 2 expected) and
``models`` on more than 20 atoms (exit 3 expected).

Answers are checked against :mod:`reference` where the input is a
discourse, and every call's stdout and exit code against digests
recorded for the default seed. Calls on the fixed demo files do not
depend on the seed, so their digests are checked on every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import DEFAULT_SEED, Answer, Question
from gen import SplitMix64, random_discourse
from reference import EdgeOracle, bit_list, clause_form, clause_masks, parse_discourse, replay_proof

now = time.perf_counter

# Fixed goals for the demo files, so that their calls are seed-independent.
DEMO_GOALS = {"delta.gnf": "c ~d e", "f1.gnf": "~f", "f2.gnf": "s",
              "lewis.clauses": "b", "loop_chain.edges": "b"}

CYCLE = ("demo:delta.gnf", "gen:gnf", "demo:f1.gnf", "gen:edges", "bad:parse", "demo:f2.gnf",
         "gen:clauses", "demo:lewis.clauses", "gen:gnf", "bad:utf8", "demo:loop_chain.edges",
         "gen:edges", "gen:clauses", "bad:wide")

# Follow-up variants: subcommand and its arguments ("GOAL" is the question's clause).
FOLLOWUPS = (
    ("models",), ("kernels",), ("semikernels",), ("subdiscourse",), ("closure",),
    ("prove", "GOAL", "--weakening", "none"), ("prove", "GOAL", "--weakening", "awbw"),
    ("prove", "GOAL", "--weakening", "cw"), ("entails", "GOAL"),
    ("entails", "GOAL", "--classical"), ("entails", "GOAL", "--semantic"),
    ("relevant", "GOAL"), ("min",), ("check-random",),
)
GRAPH_ONLY = {"models", "kernels", "semikernels"}
GOAL_SUBCOMMANDS = {"prove", "entails", "relevant"}
FOLLOWUPS_PER_QUESTION = 3
CALL_TIMEOUT_S = 60

SET_RE = re.compile(r"\{([^}]*)\}")
STEP_RE = re.compile(r"^(\d+)\. (.*) \[(input|axiom|res (\d+) (\d+) on (\S+))\]$")


def atom_set(text: str) -> frozenset:
    return frozenset(a for a in text.split(",") if a)


class DeskCli:
    name = "desk-cli"
    cycle = list(CYCLE)

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.digests: dict = {}
        self.recorded: dict = {}
        path = Path(__file__).with_name("digests.json")
        if path.is_file():
            self.recorded = json.loads(path.read_text())
        self.seed = DEFAULT_SEED
        self.replayed: set = set()

    # --- inputs ---------------------------------------------------------------

    def question(self, seed: int, index: int, unique=None) -> Question:
        self.seed = seed
        label = self.cycle[index % len(self.cycle)]
        kind, _, what = label.partition(":")
        rng = SplitMix64(seed * 1_000_003 + index)
        if kind == "demo":
            text = (self.root / "demos" / "data" / what).read_text()
            q = Question(index, label, parse_discourse(text), text, what.rsplit(".", 1)[1])
            q.extra = {"label": label, "goal": DEMO_GOALS[what], "data": text.encode()}
        elif kind == "gen":
            d = random_discourse(rng, 3 + rng.below(5), 0.25 + 0.05 * rng.below(4), "p")
            text = d.text(what)
            lits = sorted({rng.choice(d.names) for _ in range(1 + rng.below(2))})
            goal = " ".join(("~" if rng.below(2) else "") + a for a in lits)
            q = Question(index, label, d, text, what)
            q.extra = {"label": f"q{index}:{label}", "goal": goal, "data": text.encode()}
        else:
            d = random_discourse(rng, 21 + rng.below(4), 0.1, "z")
            lines = d.gnf_text().splitlines()
            data = {
                "parse": ("\n".join(lines[:3] + [lines[3].replace(":", "=")] + lines[4:]) + "\n").encode(),
                "utf8": ("\n".join(lines[:4]) + "\n").encode() + b"\xff\xfe : z00\n",
                "wide": d.gnf_text().encode(),
            }[what]
            q = Question(index, label, None, "", "gnf")
            q.extra = {"label": f"q{index}:{label}", "data": data}
        q.extra["path"] = self.workdir / f"q{index}.{q.fmt if kind != 'bad' else 'txt'}"
        q.extra["calls"] = self.calls_for(q, index, kind, what)
        return q

    def calls_for(self, q: Question, index: int, kind: str, what: str) -> list:
        if kind == "bad":
            sub = "paradox" if what == "parse" else "models"
            return [((sub,), index % 2 == 1, 2 if what != "wide" else 3)]
        calls = [(("paradox",), index % 2 == 1, None)]
        clause_input = q.fmt == "clauses"
        # Consecutive well-formed questions take consecutive turns of the rotation.
        good = [i for i, label in enumerate(self.cycle) if not label.startswith("bad")]
        rank = index // len(self.cycle) * len(good) + good.index(index % len(self.cycle))
        turn = rank * FOLLOWUPS_PER_QUESTION
        while len(calls) <= FOLLOWUPS_PER_QUESTION:
            variant = FOLLOWUPS[turn % len(FOLLOWUPS)]
            as_json = turn // len(FOLLOWUPS) % 2 == 1
            turn += 1
            if clause_input and (variant[0] in GRAPH_ONLY or "--semantic" in variant):
                continue
            if variant[0] == "check-random":
                variant = ("check-random", "--n", "4", "--p", "0.3", "--seed",
                           str(self.seed * 100 + index), "--count", "2")
            calls.append((tuple(q.extra["goal"] if a == "GOAL" else a for a in variant),
                          as_json, None))
        return calls

    def write(self, q: Question) -> None:
        q.extra["path"].write_bytes(q.extra["data"])

    # --- asking ---------------------------------------------------------------

    def run_call(self, q: Question, call) -> tuple:
        """Run one call: (seconds, exit code or None on timeout, stdout, stderr, peak RSS in MB)."""
        args, as_json, _ = call
        argv = [sys.executable, "-m", "kernelogic", *args, *(["--json"] if as_json else [])]
        if args[0] != "check-random":
            # The input file follows the positionals; argparse takes no positional after a flag.
            at = 5 if args[0] in GOAL_SUBCOMMANDS else 4
            argv.insert(at, str(q.extra["path"]))
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = now()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 rather than wait: it returns this child's own peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            dt = now() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return (dt, code if code >= 0 else None, out_path.read_bytes(), err_path.read_bytes(),
                usage.ru_maxrss / 1024.0)

    def ask(self, q: Question, tr) -> tuple[Answer, dict]:
        ans = Answer()
        results = []
        times = []
        for call in q.extra["calls"]:
            with tr.span("cli.call"):
                dt, code, out, err, rss = self.run_call(q, call)
            times.append(dt)
            results.append((call, code, out, err))
            ans.calls.append((call[0][0], dt, rss))
        ans.first_s = times[0]
        if len(times) > 1:
            ans.followup_s = sum(times[1:])
        # Replay each input once: a second replay would be answered from the caches.
        if tr.enabled and q.discourse is not None and q.extra["label"] not in self.replayed:
            self.replayed.add(q.extra["label"])
            for call in q.extra["calls"]:
                replay(q, call[0], tr, ans)
        return ans, {"results": results}

    # --- checking -------------------------------------------------------------

    def check(self, q: Question, ans: Answer, out: dict) -> None:
        for call, code, stdout, stderr in out["results"]:
            args, as_json, expected = call
            key = f"{q.extra['label']}|{' '.join(args)}|{'json' if as_json else 'text'}"
            digest = f"{code}:{hashlib.sha256(stdout).hexdigest()[:16]}"
            self.digests[key] = digest
            where = f"{' '.join(args)}{' --json' if as_json else ''} on {q.extra['label']}"
            if b"Traceback" in stderr or code is None:
                ans.crash(f"{where}: exit {code} with a traceback")
                ans.counts["cli.unexpected_exit"] = ans.counts.get("cli.unexpected_exit", 0) + 1
                continue
            if (self.seed == DEFAULT_SEED or q.stratum.startswith("demo")) and key in self.recorded:
                ans.expect(self.recorded[key] == digest, f"{where}: output differs from its digest")
            if expected is not None:
                if code != expected:
                    ans.wrong(f"{where}: exit {code}, expected {expected}")
                    ans.counts["cli.unexpected_exit"] = ans.counts.get("cli.unexpected_exit", 0) + 1
                continue
            try:
                self.check_call(q, args, as_json, code, stdout.decode(), ans, where)
            except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
                ans.wrong(f"{where}: unreadable output ({exc!r})")

    def check_call(self, q, args, as_json, code, stdout, ans, where) -> None:
        sub = args[0]
        decision = sub in ("prove", "entails", "relevant")
        if not decision:
            ans.expect(code == 0, f"{where}: exit {code}, expected 0")
        if sub == "check-random":
            ok = json.loads(stdout)["result"]["ok"] if as_json else stdout.rstrip().endswith(", 0 mismatches")
            ans.expect(ok, f"{where}: differential run reports mismatches")
            return
        result = json.loads(stdout)["result"] if as_json else None
        lines = stdout.splitlines()
        ref = EdgeOracle(q.discourse) if q.discourse is not None else None
        if ref is None:
            ans.expect(code in (0, 1), f"{where}: exit {code}")
            return
        goal = clause_masks(ref, q.extra["goal"])
        bad = ref.paradox()
        if sub == "paradox":
            got = frozenset(result) if as_json else atom_set(SET_RE.fullmatch(lines[0]).group(1))
            ans.expect(got == ref.atoms(bad), f"{where}: paradoxical atoms")
        elif sub in ("models", "kernels", "semikernels"):
            found = ref.brute(ref.full)
            if sub == "models":
                want = {(ref.atoms(t), ref.atoms(f), ref.atoms(d)) for t, f, d in ref.all_models()}
                if as_json:
                    got = {(frozenset(m["true"]), frozenset(m["false"]), frozenset(m["paradox"]))
                           for m in result}
                else:
                    got = {tuple(atom_set(s) for s in SET_RE.findall(line)) for line in lines}
            else:
                want = {ref.atoms(m) for m in found[sub]}
                got = ({frozenset(k) for k in result} if as_json
                       else {atom_set(SET_RE.fullmatch(line).group(1)) for line in lines})
            ans.expect(got == want, f"{where}: wrong {sub}")
        elif sub == "subdiscourse":
            healthy = ref.full & ~bad
            border = healthy_border(ref, bad) if q.fmt != "clauses" else 0
            theory = {(p & ~bad, n & ~bad) for p, n in clause_form(ref)} - {(0, 0)}
            if as_json:
                got = (frozenset(result["paradox"]), frozenset(result["healthy"]),
                       frozenset(result["border"]), result["theory"])
            else:
                sets = [atom_set(SET_RE.search(line).group(1)) for line in lines[:3]]
                got = (*sets, [line.strip() for line in lines[4:]])
            want = (ref.atoms(bad), ref.atoms(healthy), ref.atoms(border))
            ans.expect(got[:3] == want, f"{where}: paradox, healthy or border")
            ans.expect({clause_masks(ref, c) for c in got[3]} == theory, f"{where}: theory")
        elif sub in ("closure", "min"):
            got = {clause_masks(ref, c) for c in (result if as_json else lines)}
            minimal = ref.minimal_clauses()
            if sub == "min":
                ans.expect(got == minimal, f"{where}: minimal clauses")
            else:
                ans.expect(minimal <= got and clause_form(ref) <= got, f"{where}: clauses missing")
                ans.expect(all(ref.entails_para(p, n) for p, n in got if p or n),
                           f"{where}: closure holds an unentailed clause")
        elif sub == "prove":
            mode = args[-1]
            yes = code == 0
            ans.expect(code in (0, 1), f"{where}: exit {code}")
            if mode == "awbw":
                ans.expect(yes == ref.entails_para(*goal), f"{where}: wrong decision")
            elif mode == "cw":
                ans.expect(yes == ref.entails_classical(*goal), f"{where}: wrong decision")
            elif yes:
                ans.expect(ref.entails_para(*goal), f"{where}: proved an unentailed clause")
            else:
                ans.expect(goal not in ref.minimal_clauses(), f"{where}: missed a minimal clause")
            if yes and not as_json:
                check_proof_text(ref, goal, bad, lines, ans, where)
        elif sub == "entails":
            classical = "--classical" in args
            want = ref.entails_classical(*goal) if classical else ref.entails_para(*goal)
            ans.expect(code == (0 if want else 1), f"{where}: wrong decision")
            if "--semantic" in args and as_json:
                via = result["via"]
                ans.expect(result["holds"] == want, f"{where}: verdict")
                if "countermodel" in via:
                    cm = via["countermodel"]
                    model = (ref.mask(cm["true"]), ref.mask(cm["false"]), ref.mask(cm["paradox"]))
                    ans.expect(model in set(ref.all_models()) and not ref.satisfies(model, *goal),
                               f"{where}: countermodel")
                if "witness" in via:
                    wp, wn = clause_masks(ref, via["witness"])
                    ans.expect(wp & ~goal[0] == 0 and wn & ~goal[1] == 0 and ref.entails_para(wp, wn),
                               f"{where}: witness")
            elif as_json:
                ans.expect(result == want, f"{where}: JSON decision")
        elif sub == "relevant":
            ans.expect(code == (0 if ref.is_relevant(*goal) else 1), f"{where}: wrong decision")


def healthy_border(ref: EdgeOracle, bad: int) -> int:
    healthy = ref.full & ~bad
    return sum(1 << i for i in bit_list(healthy) if ref.succ[i] & bad)


def check_proof_text(ref, goal, bad, lines, ans, where) -> None:
    steps = []
    for line in lines:
        m = STEP_RE.match(line)
        if m:
            rule = m.group(3).split()[0]
            premises = (int(m.group(4)), int(m.group(5))) if rule == "res" else None
            steps.append((m.group(2), rule, premises, m.group(6)))
    tail = lines[-1]
    if tail.endswith("[weakening: all atoms provably paradoxical]"):
        ans.expect((goal[0] | goal[1]) & ~bad == 0, f"{where}: weakening on healthy atoms")
        return
    try:
        last = replay_proof(ref, clause_form(ref), steps)
    except ValueError as exc:
        ans.wrong(f"{where}: proof does not replay: {exc}")
        return
    ans.expect(last[0] & ~goal[0] == 0 and last[1] & ~goal[1] == 0,
               f"{where}: proved clause is not part of the goal")


def replay(q: Question, args, tr, ans: Answer) -> None:
    """Answer one CLI call in-process, through the functions the subcommand calls."""
    import kernelogic as kl
    from kernelogic import io_text

    sub = args[0]
    if sub == "check-random":
        return
    with tr.span("io_text.parse"):
        doc = io_text.parse_document(q.text)
    graph = None
    if doc.kind != io_text.CLAUSE_SET:
        with tr.span("graphs.translate"):
            graph = kl.theory_to_graph(doc.payload) if doc.kind == io_text.GNF_THEORY else doc.payload
        with tr.span("clauses.clause_form"):
            theory = kl.clausal_theory(graph)
        ans.counts["graphs.components"] = len(kl.underlying_components(graph))
    else:
        theory = doc.payload
    goal = io_text.parse_clause(q.extra["goal"])
    counts = ans.counts
    counts["clauses.input_clauses"] = len(theory)
    if sub in GRAPH_ONLY or "--semantic" in args:
        if sub == "models":
            with tr.span("kernels.models"):
                result = kl.models(graph)
            counts["kernels.models_found"] = len(result)
        elif sub == "kernels":
            with tr.span("kernels.kernels"):
                result = kl.enumerate_kernels(graph)
            counts["kernels.kernels_found"] = len(result)
        elif sub == "semikernels":
            with tr.span("kernels.semikernels"):
                result = kl.enumerate_semikernels(graph)
            counts["kernels.semikernels_found"] = len(result)
        else:
            with tr.span("semantics.entails_semantic"):
                result = kl.entails_semantic(graph, goal)
    elif "--classical" in args:
        with tr.span("semantics.classical"):
            result = kl.classical_entails(theory, goal)
    else:
        with tr.span("resolution.saturate"):
            closure = kl.saturate(theory)
        counts["resolution.closure_clauses"] = len(closure)
        counts["resolution.universe_atoms"] = len(closure.universe)
        if sub == "paradox":
            with tr.span("resolution.paradox"):
                result = kl.paradoxical_atoms(closure)
        elif sub == "subdiscourse":
            with tr.span("resolution.subtheory"):
                result = kl.consistent_subtheory(theory, graph, closure=closure)
        elif sub == "closure":
            result = closure
        elif sub == "prove":
            with tr.span("resolution.weakened"):
                result = kl.provable_weakened(theory, goal, args[-1], closure=closure)
            if goal in closure:
                with tr.span("resolution.proof"):
                    counts["resolution.proof_steps"] = len(kl.proof_of(closure, goal).steps)
        elif sub == "entails":
            with tr.span("resolution.entails"):
                result = kl.entails_para(theory, goal, closure=closure)
        elif sub == "relevant":
            with tr.span("semantics.relevant"):
                result = kl.is_relevant(theory, goal, closure=closure)
        else:
            with tr.span("semantics.min"):
                result = kl.min_clauses(theory, closure=closure)
            counts["semantics.min_clauses"] = len(result)
    with tr.span("io_text.serialize"):
        text = io_text.to_json(result, sub)
    counts["io_text.output_bytes"] = counts.get("io_text.output_bytes", 0) + len(text)


def census(root: Path, workdir: Path, tr) -> list:
    """Call every subcommand once on ``demos/data/delta.gnf``, traced and replayed.

    Traced runs use it for the layers their own questions never call,
    so that every per-layer time is a measurement.
    """
    import kernelogic as kl
    from kernelogic import io_text

    wl = DeskCli(root, workdir)
    text = (root / "demos" / "data" / "delta.gnf").read_text()
    q = Question(-2, "census", parse_discourse(text), text, "gnf")
    # c is provably paradoxical in delta.gnf, so prove also reconstructs a proof.
    q.extra = {"label": "census", "goal": "c", "path": workdir / "census.gnf"}
    q.extra["path"].write_text(text)
    records = []
    variants = [("paradox",)] + [v for v in FOLLOWUPS if v[0] != "check-random"]
    variants.append(("check-random", "--n", "3", "--count", "1"))
    tr.question = q.index
    for variant in variants:
        args = tuple(q.extra["goal"] if a == "GOAL" else a for a in variant)
        ans = Answer()
        with tr.span("cli.call"):
            dt, _, _, _, rss = wl.run_call(q, (args, False, None))
        ans.calls.append((args[0], dt, rss))
        replay(q, args, tr, ans)
        records.append((q, ans, 0.0))
    theory = kl.clausal_theory(kl.theory_to_graph(io_text.parse_document(text).payload))
    with tr.span("resolution.assumptions"):
        kl.closure_with_assumptions(theory, io_text.parse_clause(q.extra["goal"]))
    return records
