"""The in-process workloads: paradox-dense, components-wide, kernel-sparse.

Each question hands the program discourse text, times the first
serialized answer and then one batch of follow-up queries on the
closure or model list already built, and checks every answer against
:mod:`reference` outside the timed regions.
"""

from __future__ import annotations

import json
import time

import kernelogic as kl
from kernelogic import io_text

from common import Answer, Question, UniqueGraphs
from gen import Discourse, SplitMix64, odd_cycles, random_discourse, two_cycles, union
from reference import EdgeOracle, bit_list, clause_form, replay_proof

now = time.perf_counter

WEAKENING_MODES = ("none", "awbw", "cw")


def parse_graph(text: str, tr):
    with tr.span("io_text.parse"):
        doc = io_text.parse_document(text)
    with tr.span("graphs.translate"):
        graph = kl.theory_to_graph(doc.payload) if doc.kind == io_text.GNF_THEORY else doc.payload
    return graph


def random_clause(rng: SplitMix64, names, width: int) -> kl.Clause:
    atoms = {rng.choice(names) for _ in range(width)}
    return kl.Clause(kl.Literal(a, rng.below(2) == 1) for a in sorted(atoms))


def masks(ref: EdgeOracle, clause: kl.Clause) -> tuple[int, int]:
    return ref.clause(str(lit) for lit in clause.literals)


def clause_text_set(ref: EdgeOracle, clauses) -> set:
    return {masks(ref, c) for c in clauses}


class ResolutionWorkload:
    """Shared question shape of paradox-dense and components-wide."""

    name = ""
    cycle: list[str] = []
    serialize_closure_below = 0  # serialize the closure when the universe is smaller
    classical = True
    assumptions = False

    def ask(self, q: Question, tr) -> tuple[Answer, dict]:
        ans = Answer()
        out: dict = {}
        t0 = now()
        graph = parse_graph(q.text, tr)
        with tr.span("clauses.clause_form"):
            theory = kl.clausal_theory(graph)
        with tr.span("resolution.saturate"):
            closure = kl.saturate(theory)
        with tr.span("resolution.paradox"):
            bad = kl.paradoxical_atoms(closure)
        with tr.span("io_text.serialize"):
            first_json = io_text.to_json(bad, "paradox")
        t1 = now()
        ans.first_s = t1 - t0
        ans.counts = {
            "clauses.input_clauses": len(theory),
            "resolution.closure_clauses": len(closure),
            "resolution.universe_atoms": len(closure.universe),
            "io_text.output_bytes": len(first_json),
        }
        if tr.enabled:
            ans.counts["graphs.components"] = len(kl.underlying_components(graph))
        out["first_json"] = first_json
        if not q.extra:
            return ans, out

        x = q.extra
        t1 = now()
        with tr.span("resolution.subtheory"):
            out["subtheory"] = kl.consistent_subtheory(theory, graph, closure=closure)
        with tr.span("resolution.entails"):
            out["entails"] = [kl.entails_para(theory, c, closure=closure) for c in x["entails"]]
        with tr.span("resolution.weakened"):
            out["weakened"] = {
                m: kl.provable_weakened(theory, x["weakened"], m, closure=closure)
                for m in WEAKENING_MODES
            }
        # The unit comes from the first answer: a paradoxical atom has both units derivable.
        atom = sorted(bad)[x["unit_pick"] % len(bad)] if bad else None
        unit = kl.Clause([kl.Literal(atom, x["unit_negated"])]) if atom else None
        if unit is not None:
            with tr.span("resolution.proof"):
                out["proof"] = kl.proof_of(closure, unit)
        with tr.span("semantics.min"):
            out["min"] = kl.min_clauses(theory, closure=closure)
        with tr.span("semantics.relevant"):
            out["relevant"] = kl.is_relevant(theory, x["relevant"], closure=closure)
        if self.classical:
            with tr.span("semantics.classical"):
                out["classical"] = kl.classical_entails(theory, x["classical"])
        if self.assumptions:
            with tr.span("resolution.assumptions"):
                assumed = kl.closure_with_assumptions(theory, x["assume"])
                out["assumed_empty"] = kl.Clause() in assumed
                del assumed
        closure_json = None
        if len(closure.universe) < self.serialize_closure_below:
            with tr.span("io_text.serialize"):
                closure_json = io_text.to_json(closure, "closure")
        t2 = now()

        ans.followup_s = t2 - t1
        ans.counts["semantics.min_clauses"] = len(out["min"])
        if closure_json:
            ans.counts["io_text.output_bytes"] += len(closure_json)
        if "proof" in out:
            ans.counts["resolution.proof_steps"] = len(out["proof"].steps)
        out.update(closure_json=closure_json, unit=unit, closure_size=len(closure))
        return ans, out

    def check(self, q: Question, ans: Answer, out: dict) -> None:
        ref = EdgeOracle(q.discourse)
        x = q.extra
        bad_ref = ref.paradox()
        ans.expect(json.loads(out["first_json"])["result"] == sorted(ref.atoms(bad_ref)),
                   "paradox: wrong paradoxical atoms")
        ans.expect(bool(bad_ref), "paradox: workload expects a paradoxical discourse")
        if not x:
            return
        rep = out["subtheory"]
        healthy = ref.full & ~bad_ref
        border = {ref.names[i] for i in bit_list(healthy) if ref.succ[i] & bad_ref}
        reduced = {(p & ~bad_ref, n & ~bad_ref) for p, n in clause_form(ref)} - {(0, 0)}
        ans.expect(rep.paradox_atoms == ref.atoms(bad_ref), "subtheory: paradox atoms")
        ans.expect(rep.healthy_atoms == ref.atoms(healthy), "subtheory: healthy atoms")
        ans.expect(rep.border == border, "subtheory: border")
        ans.expect(clause_text_set(ref, rep.theory.clauses) == reduced, "subtheory: theory")
        for c, got in zip(x["entails"], out["entails"]):
            ans.expect(got == ref.entails_para(*masks(ref, c)), f"entails_para {c}")
        wc = masks(ref, x["weakened"])
        weak = out["weakened"]
        ans.expect(weak["awbw"] == ref.entails_para(*wc), "provable_weakened awbw")
        ans.expect(weak["cw"] == ref.entails_classical(*wc), "provable_weakened cw")
        if weak["none"]:
            ans.expect(ref.entails_para(*wc), "provable_weakened none: underivable clause proved")
        else:
            ans.expect(not ref.is_relevant(*wc), "provable_weakened none: relevant clause missed")
        if out["unit"] is not None:
            steps = [(str(s.clause), s.rule, s.premises, s.atom) for s in out["proof"].steps]
            try:
                last = replay_proof(ref, clause_form(ref), steps)
                ans.expect(last == masks(ref, out["unit"]), "proof_of: wrong conclusion")
            except ValueError as exc:
                ans.wrong(f"proof_of: {exc}")
        for c in out["min"]:
            ans.expect(ref.is_relevant(*masks(ref, c)), f"min_clauses: {c} is not minimal")
        ans.expect(out["relevant"] == ref.is_relevant(*masks(ref, x["relevant"])), "is_relevant")
        if "classical" in out:
            ans.expect(out["classical"] == ref.entails_classical(*masks(ref, x["classical"])),
                       "classical_entails")
        if "assumed_empty" in out:
            ans.expect(out["assumed_empty"] == ref.entails_classical(*masks(ref, x["assume"])),
                       "closure_with_assumptions: empty clause")
        if out["closure_json"] is not None:
            listed = json.loads(out["closure_json"])["result"]
            ans.expect(len(listed) == len(set(listed)) == out["closure_size"], "closure JSON: size")
            got = {ref.clause(c.split()) for c in listed if c != "[]"}
            ans.expect(clause_form(ref) <= got, "closure JSON: input clauses missing")

    def query_clauses(self, rng: SplitMix64, names) -> dict:
        return {
            "entails": [random_clause(rng, names, 1 + k % 3) for k in range(4)],
            "weakened": random_clause(rng, names, 2),
            "relevant": random_clause(rng, names, 2),
            "classical": random_clause(rng, names, 2),
            "assume": random_clause(rng, names, 2),
            "unit_pick": rng.below(1 << 16),
            "unit_negated": rng.below(2) == 1,
        }


def connected_paradox(rng: SplitMix64, n: int, p: float, prefix: str) -> Discourse:
    while True:
        d = random_discourse(rng, n, p, prefix)
        ref = EdgeOracle(d)
        if len(ref.components()) == 1 and not ref.has_kernel():
            return d


class ParadoxDense(ResolutionWorkload):
    """Connected paradoxical discourses of 8 and 9 atoms on the lattice path."""

    name = "paradox-dense"
    # n: first answer and follow-ups; p: first answer only. 8-atom first
    # answers are five of six, so the first-answer median sits among
    # them; 8-atom follow-ups, where the closure JSON costs about 3 s of
    # nearly fixed work, are two of three, so the follow-up median sits
    # among those. Either stratum alone would leave too few samples of
    # the other in one run.
    cycle = ["n8", "p8", "n8", "p8", "n9", "p8"]
    serialize_closure_below = 9

    def question(self, seed: int, index: int, unique: UniqueGraphs) -> Question:
        rng = SplitMix64(seed * 1_000_003 + index)
        stratum = self.cycle[index % len(self.cycle)]
        p = (0.3, 0.5)[index // 2 % 2]
        while True:
            d = connected_paradox(rng, int(stratum[1:]), p, "a")
            if unique.fresh(d):
                break
        fmt = ("gnf", "edges")[index % 2]
        queries = self.query_clauses(rng, d.names) if stratum.startswith("n") else {}
        return Question(index, stratum, d, d.text(fmt), fmt, queries)

    def warmup(self, seed: int, rep: int, unique: UniqueGraphs) -> list[Question]:
        rng = SplitMix64((seed << 8) + rep)
        d = connected_paradox(rng, 5, 0.4, f"w{rep}_")
        unique.fresh(d)
        return [Question(-1, "warm", d, d.gnf_text(), "gnf", self.query_clauses(rng, d.names))]


class ComponentsWide(ResolutionWorkload):
    """Disjoint unions of 4- and 5-atom components on the pairwise path."""

    name = "components-wide"
    cycle = ["w34"]
    # Component sizes and which of them are paradoxical; p = 0.5 makes
    # each component's closure size nearly fixed (1024 or 992 clauses at
    # 5 atoms, 256 or 240 at 4), so questions cost about the same.
    sizes = (5, 5, 4, 4, 4, 4, 4, 4)
    paradoxical = (True, False, True, False, True, False, True, False)
    edge_prob = 0.5
    classical = False  # truth tables over 34 atoms are past the 20-atom cap
    assumptions = True

    def build(self, rng: SplitMix64, prefix: str, sizes, flags) -> Discourse:
        parts = []
        for k, (size, want) in enumerate(zip(sizes, flags)):
            while True:
                d = random_discourse(rng, size, self.edge_prob, f"{prefix}{k}x")
                ref = EdgeOracle(d)
                if len(ref.components()) == 1 and ref.has_kernel() != want:
                    parts.append(d)
                    break
        return union(parts)

    def question(self, seed: int, index: int, unique: UniqueGraphs) -> Question:
        rng = SplitMix64(seed * 1_000_003 + index)
        while True:
            d = self.build(rng, "k", self.sizes, self.paradoxical)
            if unique.fresh(d):
                break
        fmt = ("gnf", "edges")[index % 2]
        return Question(index, self.cycle[0], d, d.text(fmt), fmt, self.query_clauses(rng, d.names))

    def warmup(self, seed: int, rep: int, unique: UniqueGraphs) -> list[Question]:
        rng = SplitMix64((seed << 8) + rep)
        d = self.build(rng, f"w{rep}_", (4, 4, 4), (True, False, True))
        unique.fresh(d)
        return [Question(-1, "warm", d, d.gnf_text(), "gnf", self.query_clauses(rng, d.names))]


class KernelSparse:
    """16-20 atom discourses with many independent sets; never saturated."""

    name = "kernel-sparse"
    # s: sparse random graph, t4: ten 2-cycles with four liar loops,
    # t0: eight plain 2-cycles, o: disjoint odd cycles. The 2-cycle
    # unions are where the quadratic maximality filter of ``models`` costs
    # seconds; each cycle of questions meets each of them once, and the
    # cheap sparse graphs fill the rest so that their medians rest on
    # many samples.
    cycle = (["s", "t4"] + ["s"] * 10 + ["o"] + ["s"] * 10 + ["t0"]
             + ["s"] * 11 + ["o"] + ["s"] * 12)
    # (atoms, edge probability) of the sparse random graphs, in turn; 16
    # atoms at p 0.05 rarely lands in the bands below.
    sparse_shapes = ((16, 0.03), (18, 0.04), (16, 0.04), (18, 0.03), (18, 0.05))
    # Sparse random graphs are kept only when their independent sets and
    # inverse-closed semikernels fall in these bands. The cost of
    # ``models`` grows with both, and spans four orders of magnitude over
    # unfiltered graphs of this size, which no run of a few seconds can
    # sample steadily.
    independent_band = (12288, 20480)
    closed_band = (512, 1024)
    # Keeps the reference's per-component brute force small.
    max_component = 10
    odd_lengths = ((5, 5, 7), (3, 5, 9), (5, 5, 9), (3, 7, 7), (5, 7, 7))

    def make(self, rng: SplitMix64, stratum: str, index: int, prefix: str) -> Discourse:
        if stratum == "s":
            n, p = self.sparse_shapes[index % len(self.sparse_shapes)]
            while True:
                d = random_discourse(rng, n, p, prefix)
                ref = EdgeOracle(d)
                if max(c.bit_count() for c in ref.components()) > self.max_component:
                    continue
                counts = ref.counts()
                lo, hi = self.independent_band
                if lo <= counts["independent"] <= hi and \
                        self.closed_band[0] <= counts["closed"] <= self.closed_band[1]:
                    return d
        if stratum in ("t4", "t0"):
            # The question's own prefix makes each one a new graph to the
            # program; the layout is fixed because the cost of the filter
            # depends on the order of the atoms.
            k, liars = (10, 4) if stratum == "t4" else (8, 0)
            return two_cycles(k, liars, prefix)
        return odd_cycles(rng.choice(self.odd_lengths), prefix)

    def question(self, seed: int, index: int, unique: UniqueGraphs) -> Question:
        rng = SplitMix64(seed * 1_000_003 + index)
        stratum = self.cycle[index % len(self.cycle)]
        while True:
            d = self.make(rng, stratum, index, f"q{index}_")
            if unique.fresh(d):
                break
        fmt = ("gnf", "edges")[index % 2]
        clauses = [random_clause(rng, d.names, 1 + k % 3) for k in range(4)]
        return Question(index, stratum, d, d.text(fmt), fmt, {"entails": clauses})

    def warmup(self, seed: int, rep: int, unique: UniqueGraphs) -> list[Question]:
        rng = SplitMix64((seed << 8) + rep)
        out = []
        for stratum in ("s", "o"):
            d = self.make(rng, stratum, 0, f"w{rep}{stratum}_")
            unique.fresh(d)
            clauses = [random_clause(rng, d.names, 2)]
            out.append(Question(-1, "warm", d, d.gnf_text(), "gnf", {"entails": clauses}))
        return out

    def ask(self, q: Question, tr) -> tuple[Answer, dict]:
        ans = Answer()
        t0 = now()
        graph = parse_graph(q.text, tr)
        with tr.span("kernels.models"):
            found = kl.models(graph)
        with tr.span("io_text.serialize"):
            first_json = io_text.to_json(found, "models")
        t1 = now()
        with tr.span("kernels.kernels"):
            kernels = kl.enumerate_kernels(graph)
        with tr.span("kernels.semikernels"):
            semis = kl.enumerate_semikernels(graph)
        with tr.span("semantics.entails_semantic"):
            verdicts = [kl.entails_semantic(graph, c, model_list=found) for c in q.extra["entails"]]
        t2 = now()
        ans.first_s = t1 - t0
        ans.followup_s = t2 - t1
        ans.counts = {
            "kernels.models_found": len(found),
            "kernels.kernels_found": len(kernels),
            "kernels.semikernels_found": len(semis),
            "kernels.models_per_semikernel": len(found) / len(semis),
            "io_text.output_bytes": len(first_json),
        }
        if tr.enabled:
            ans.counts["graphs.components"] = len(kl.underlying_components(graph))
        return ans, {"models": found, "first_json": first_json, "kernels": kernels,
                     "semikernels": semis, "verdicts": verdicts}

    def check(self, q: Question, ans: Answer, out: dict) -> None:
        ref = EdgeOracle(q.discourse)
        want = ref.counts()
        domain = ref.domain()
        models = []
        for m in out["models"]:
            t, f, d = ref.mask(m.true_set), ref.mask(m.false_set), ref.mask(m.paradox_set)
            ok = (ref.is_semikernel(t) and ref.is_inverse_closed(t) and f == ref.into(t)
                  and t | f == domain and d == ref.full & ~domain)
            ans.expect(ok, f"models: {sorted(m.true_set)} is not a model with the shared domain")
            models.append((t, f, d))
        ans.expect(len(set(models)) == len(models) == want["models"], "models: count")
        listed = json.loads(out["first_json"])["result"]
        ans.expect(len(listed) == len(models), "models JSON: count")
        kernels = [ref.mask(k) for k in out["kernels"]]
        ans.expect(all(ref.is_kernel(k) for k in kernels), "kernels: not independent and absorbing")
        ans.expect(len(set(kernels)) == len(kernels) == want["kernels"], "kernels: count")
        semis = [ref.mask(s) for s in out["semikernels"]]
        ans.expect(all(ref.is_semikernel(s) for s in semis), "semikernels: not a semikernel")
        ans.expect(len(set(semis)) == len(semis) == want["semikernels"], "semikernels: count")
        for c, verdict in zip(q.extra["entails"], out["verdicts"]):
            pos, neg = masks(ref, c)
            holds = all(ref.satisfies(m, pos, neg) for m in models)
            ans.expect(verdict.holds == holds == ref.entails_para(pos, neg), f"entails_semantic {c}")
            if verdict.countermodel is not None:
                cm = verdict.countermodel
                ans.expect(not ref.satisfies((ref.mask(cm.true_set), ref.mask(cm.false_set),
                                              ref.mask(cm.paradox_set)), pos, neg),
                           f"entails_semantic {c}: countermodel satisfies the clause")
