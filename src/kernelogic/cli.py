"""Command line interface.

One executable, one subcommand per question you can ask a discourse.
Decision commands exit 0 for yes and 1 for no; malformed input (bytes
that are not UTF-8 included) or usage exits 2; a blown size cap or
exhausted memory exits 3.

``paradox``, ``subdiscourse``, ``min``, ``relevant`` and the default
``entails`` answer a graph input whose every weakly connected component
has at most ``--max-atoms`` atoms from its models
(``kernels.model_side``); any other input takes the closure, as do
``closure`` and ``prove``. ``entails --semantic`` takes the models
under the same cap, or exits 3. Both sides give the same answer, since
direct resolution is sound and complete for the models. On the models,
``--max-clauses`` caps the minimal clauses ``min`` finds instead of the
closure. ``entails --classical`` builds no closure either: it runs
truth tables over the whole universe, under the ``--max-atoms`` cap.

A call loads only the modules its route runs. Every command loads the
parsers (``io_text``, ``graphs``, ``clauses``) and ``kernels``, which
answer the listings and the model route. ``subdiscourse`` and both
``entails`` flags add ``semantics``; the closure route adds
``resolution`` and ``semantics``, and numpy where a component of 4 to
11 atoms gets a clause lattice; ``check-random`` and ``--oracle`` add
``oracle``. No call loads ``dataclasses`` (the records are plain
slotted classes) or ``json`` (``io_text`` writes JSON itself).
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice
from typing import Iterator, Optional

from .clauses import ClausalTheory, clausal_theory
from .errors import KernelogicError, ParseError, ResourceLimitError, ValidationError
from .graphs import Digraph, theory_to_graph
from .io_text import (
    CLAUSE_SET,
    EDGE_LIST,
    GNF_THEORY,
    json_chunks,
    parse_clause,
    parse_document,
    sorted_clause_strings,
)
from .kernels import (
    DEFAULT_MAX_ATOMS,
    DEFAULT_MAX_CLAUSES,
    LATTICE_MAX_ATOMS,
    WEAKENING_MODES,
    ModelSide,
    check_cap,
    kernel_masks,
    model_masks,
    model_side,
    partition_names,
    semikernel_masks,
)

# resolution, semantics and oracle are imported by the commands that
# run them, so that no call loads an engine its route does not use.

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

_FORMAT_KINDS = {"gnf": GNF_THEORY, "edges": EDGE_LIST, "clauses": CLAUSE_SET}


def _read_input(path: str) -> str:
    """The input's bytes decoded as strict UTF-8, from a file or stdin
    alike. Every carriage return is kept: parse_document alone decides
    where lines end."""
    if path == "-":
        # A process started without file descriptor 0 has no sys.stdin.
        if sys.stdin is None:
            raise ParseError("<stdin> is closed")
        source, data = "<stdin>", sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            source, data = path, handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source} is not UTF-8 text ({exc.reason})") from None


def _load(args) -> tuple[Optional[Digraph], ClausalTheory]:
    kind = _FORMAT_KINDS[args.format] if args.format else None
    doc = parse_document(
        _read_input(args.input), kind=kind, complete_loose=args.complete_loose
    )
    if doc.kind == GNF_THEORY:
        graph = theory_to_graph(doc.payload)
        return graph, clausal_theory(graph)
    if doc.kind == EDGE_LIST:
        return doc.payload, clausal_theory(doc.payload)
    return None, doc.payload


def _require_graph(graph: Optional[Digraph]) -> Digraph:
    if graph is None:
        raise ValidationError(
            "this command needs a GNF theory or edge-list input, not a bare clause set"
        )
    return graph


def _fmt_names(names) -> str:
    """An atom set from its names in sorted order."""
    return "{" + ",".join(names) + "}"


def _fmt_model(true, false, paradox) -> str:
    """A model from the sorted names of its true, false and unsettled atoms."""
    return f"true={_fmt_names(true)} false={_fmt_names(false)} paradox={_fmt_names(paradox)}"


def _fmt_set(atoms) -> str:
    return _fmt_names(sorted(atoms))


def _fmt_partition3(p) -> str:
    return _fmt_model(sorted(p.true_set), sorted(p.false_set), sorted(p.paradox_set))


# Text output is written this many lines at a time, joined: a print per
# line cost a 524,288-line listing 1.7 s more (shared 2-CPU Linux VM).
_LINES_PER_WRITE = 4096


def _emit(args, command: str, result, render) -> None:
    """Print ``result`` as JSON, written piece by piece as it is formed,
    or else the lines ``render()`` returns, in joined batches of
    ``_LINES_PER_WRITE`` so that a listing still streams.

    A reader that closes the pipe early (``| head``) drops the rest of
    the output: stdout then points at the null device, so that neither
    this nor the interpreter's last flush fails, and the command keeps
    its own exit code.
    """
    try:
        if args.json:
            sys.stdout.writelines(json_chunks(result, command))
            print()
        else:
            lines = iter(render())
            while batch := list(islice(lines, _LINES_PER_WRITE)):
                batch.append("")
                sys.stdout.write("\n".join(batch))
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _set_items(graph: Digraph, masks) -> Iterator[tuple[str, ...]]:
    """Each set's sorted names: its JSON array."""
    return graph.universe.names_of(masks)


def _model_items(graph: Digraph, true_masks) -> Iterator[dict]:
    """Each model's JSON object: the sorted names of its three parts."""
    for true, false, paradox in partition_names(graph, true_masks):
        yield {"true": true, "false": false, "paradox": paradox}


def _model_line(model: dict) -> str:
    return _fmt_model(model["true"], model["false"], model["paradox"])


# The graph listings: name -> (mask listing, name of its brute-force
# oracle in ``kernelogic.oracle``, item writer, line writer). Text lines
# and JSON items are written one at a time from masks (a model's: its
# true set), the engine's or the oracle's, building no set. check-random
# compares each listing's masks with its oracle's in this order.
_LISTINGS = {
    "kernels": (kernel_masks, "brute_kernels", _set_items, _fmt_names),
    "semikernels": (semikernel_masks, "brute_semikernels", _set_items, _fmt_names),
    "models": (model_masks, "brute_models", _model_items, _model_line),
}


def _oracle_masks(graph: Digraph, brute: str) -> list[int]:
    """The masks of ``oracle.<brute>(graph)``, in its order (a model's: its true set)."""
    from . import oracle

    found = getattr(oracle, brute)(graph)
    return [graph.universe.mask_of(getattr(v, "true_set", v)) for v in found]


def cmd_listing(args) -> int:
    listing, brute, items, line = _LISTINGS[args.command]
    graph = _require_graph(_load(args)[0])
    if args.oracle:
        check_cap(len(graph), args.max_atoms)
        masks = _oracle_masks(graph, brute)
    else:
        masks = listing(graph, args.max_atoms)
    _emit(args, args.command, items(graph, masks), lambda: map(line, items(graph, masks)))
    return EXIT_YES


def _model_side(args, graph: Optional[Digraph]) -> Optional[ModelSide]:
    """The model route: a graph input whose every weakly connected
    component has at most ``--max-atoms`` atoms. None sends the whole
    input to the closure."""
    return None if graph is None else model_side(graph, args.max_atoms)


def _paradox_atoms(args, graph: Optional[Digraph], theory: ClausalTheory) -> frozenset[str]:
    side = _model_side(args, graph)
    if side is None:
        from .resolution import paradoxical_atoms, saturate

        return paradoxical_atoms(saturate(theory, args.max_clauses))
    return side.paradox_atoms()


def cmd_paradox(args) -> int:
    bad = _paradox_atoms(args, *_load(args))
    _emit(args, "paradox", bad, lambda: [_fmt_set(bad)])
    return EXIT_YES


def cmd_subdiscourse(args) -> int:
    from .semantics import subdiscourse_report

    graph, theory = _load(args)
    report = subdiscourse_report(theory, graph, _paradox_atoms(args, graph, theory))
    lines = [
        f"paradox: {_fmt_set(report.paradox_atoms)}",
        f"healthy: {_fmt_set(report.healthy_atoms)}",
        f"border: {_fmt_set(report.border)}",
        "theory:",
    ]
    lines += [f"  {c}" for c in sorted_clause_strings(report.theory.clauses)]
    _emit(args, "subdiscourse", report, lambda: lines)
    return EXIT_YES


def cmd_closure(args) -> int:
    from .resolution import saturate

    _, theory = _load(args)
    closure = saturate(theory, args.max_clauses)
    _emit(args, "closure", closure, closure.clause_texts)
    return EXIT_YES


def cmd_prove(args) -> int:
    from .resolution import proof_of, provable_weakened, saturate, weakening_witness

    _, theory = _load(args)
    goal = parse_clause(args.clause)
    closure = saturate(theory, args.max_clauses)
    yes = provable_weakened(theory, goal, args.weakening, closure=closure)

    def lines():
        if not yes:
            return [f"not provable under weakening mode {args.weakening!r}"]
        if goal in closure:
            return map(str, proof_of(closure, goal).steps)
        witness = weakening_witness(closure, goal, args.weakening)
        if witness is None:
            return [f"{goal} [weakening: all atoms provably paradoxical]"]
        return [*map(str, proof_of(closure, witness).steps), f"{goal} [weakening from {witness}]"]

    _emit(args, "prove", yes, lines)
    return EXIT_YES if yes else EXIT_NO


def cmd_entails(args) -> int:
    graph, theory = _load(args)
    goal = parse_clause(args.clause)
    if args.semantic:
        from .semantics import entails_semantic

        verdict = entails_semantic(_require_graph(graph), goal, args.max_atoms)
        lines = [("yes" if verdict.holds else "no") + f" ({verdict.kind})"]
        if verdict.witness is not None:
            lines.append(f"witness: {verdict.witness}")
        if verdict.countermodel is not None:
            lines.append(f"countermodel: {_fmt_partition3(verdict.countermodel)}")
        _emit(args, "entails", verdict, lambda: lines)
        return EXIT_YES if verdict.holds else EXIT_NO
    if args.classical:
        from .semantics import classical_entails

        yes = classical_entails(theory, goal, args.max_atoms)
    elif (side := _model_side(args, graph)) is not None:
        yes = side.entails(goal)
    else:
        from .resolution import entails_para

        yes = entails_para(theory, goal, max_clauses=args.max_clauses)
    _emit(args, "entails", yes, lambda: ["yes" if yes else "no"])
    return EXIT_YES if yes else EXIT_NO


def cmd_relevant(args) -> int:
    graph, theory = _load(args)
    goal = parse_clause(args.clause)
    if (side := _model_side(args, graph)) is not None:
        yes = side.relevant(goal)
    else:
        from .resolution import is_relevant

        yes = is_relevant(theory, goal, max_clauses=args.max_clauses)
    _emit(args, "relevant", yes, lambda: ["yes" if yes else "no"])
    return EXIT_YES if yes else EXIT_NO


def cmd_min(args) -> int:
    graph, theory = _load(args)
    if (side := _model_side(args, graph)) is not None:
        found = side.minimal_clauses(args.max_clauses)
    else:
        from .resolution import min_clauses

        found = min_clauses(theory, max_clauses=args.max_clauses)
    _emit(args, "min", found, lambda: sorted_clause_strings(found))
    return EXIT_YES


def cmd_check_random(args) -> int:
    from . import oracle

    if args.count:  # refused before the n² edge coins of a graph are drawn
        check_cap(args.n, args.max_atoms)
        oracle.check_brute_cap(args.n)
    mismatches, rows = [], []
    for i in range(args.count):
        spec = oracle.RandomGraphSpec(n=args.n, edge_prob=args.p, seed=args.seed + i)
        graph = oracle.random_digraph(spec)
        found, bad = {}, []
        for name, (listing, brute, _, _) in _LISTINGS.items():
            found[name] = listing(graph, args.max_atoms)
            if found[name] != _oracle_masks(graph, brute):
                bad.append(name)
        truth = oracle.truth_table_models(clausal_theory(graph))
        classical = [graph.universe.mask_of(a for a, v in row.items() if v) for row in truth]
        if sorted(classical) != found["kernels"]:
            bad.append("classical-models")
        status = "ok" if not bad else "MISMATCH " + ",".join(bad)
        sizes = " ".join(f"{name}={len(found[name])}" for name in _LISTINGS)
        rows.append(f"seed={spec.seed} n={spec.n} p={spec.edge_prob} {sizes} {status}")
        if bad:
            mismatches.append({"seed": spec.seed, "mismatched": bad})
    ok = not mismatches
    rows.append(f"{args.count} graphs checked, {len(mismatches)} mismatches")
    result = {"count": args.count, "mismatches": mismatches, "ok": ok}
    _emit(args, "check-random", result, lambda: rows)
    return EXIT_YES if ok else EXIT_NO


def count(text: str) -> int:
    """Argument type of counts and caps: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def probability(text: str) -> float:
    """Argument type of probabilities: a number in [0, 1]."""
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def _add_common(parser: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        # None until given, so that ``_parse_args`` can tell a missing
        # input from an explicit "-".
        parser.add_argument(
            "input",
            nargs="?",
            help="input file (GNF theory, edge list, or clause set); '-' is stdin",
        )
        parser.add_argument(
            "--format",
            choices=sorted(_FORMAT_KINDS),
            help="override input format sniffing",
        )
        parser.add_argument(
            "--complete-loose",
            action="store_true",
            help="close loose atoms with fresh twins instead of rejecting them",
        )
    parser.add_argument("--json", action="store_true", help="emit versioned JSON")
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="use the brute-force reference paths where available",
    )
    parser.add_argument(
        "--max-atoms",
        type=count,
        default=DEFAULT_MAX_ATOMS,
        help=(
            "whole-graph cap for listings and truth tables; on graphs, the widest "
            "component that paradox, subdiscourse, entails, relevant and min "
            "answer from the models"
        ),
    )
    parser.add_argument(
        "--max-clauses",
        type=count,
        default=DEFAULT_MAX_CLAUSES,
        help=(
            "cap for the whole resolution closure, all components together; on "
            f"components wider than {LATTICE_MAX_ATOMS} atoms it also bounds "
            "resolved clause pairs; when min answers from the models, the cap "
            "on its minimal clauses"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelogic",
        description=(
            "Paradox-tolerant propositional reasoning over digraph discourses: "
            "models, paradoxical atoms, consistent subtheories, and direct "
            "resolution proofs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, clause_arg: bool = False, with_input: bool = True):
        p = sub.add_parser(name, help=help_text)
        if clause_arg:
            p.add_argument("clause", help="clause text, e.g. 'a ~b' or '[]'")
        _add_common(p, with_input=with_input)
        p.set_defaults(func=func)
        return p

    add("models", cmd_listing, "all models of the discourse")
    add("kernels", cmd_listing, "all kernels (classical models)")
    add("semikernels", cmd_listing, "all semikernels")
    add("paradox", cmd_paradox, "provably paradoxical atoms")
    add("subdiscourse", cmd_subdiscourse, "maximal consistent subtheory and border")
    add("closure", cmd_closure, "the full resolution closure")
    prove = add("prove", cmd_prove, "derivability, optionally with weakening", clause_arg=True)
    prove.add_argument(
        "--weakening",
        choices=WEAKENING_MODES,
        default="none",
        help="weakening discipline (default: none)",
    )
    entails = add("entails", cmd_entails, "entailment decision", clause_arg=True)
    mode = entails.add_mutually_exclusive_group()
    mode.add_argument(
        "--classical", action="store_true", help="two-valued entailment by truth tables"
    )
    mode.add_argument(
        "--semantic",
        action="store_true",
        help="decide from the models, per component; reports a witness or countermodel",
    )
    add("relevant", cmd_relevant, "entailed with no entailed proper part", clause_arg=True)
    add("min", cmd_min, "minimal derivable clauses")
    rand = add(
        "check-random",
        cmd_check_random,
        "differential run of engine versus brute-force oracle",
        with_input=False,
    )
    rand.add_argument("--n", type=count, default=5, help="vertex count")
    rand.add_argument("--p", type=probability, default=0.3, help="edge probability")
    rand.add_argument("--seed", type=int, default=1, help="first seed")
    rand.add_argument("--count", type=count, default=20, help="number of graphs")
    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: Optional[list[str]]):
    """``parser.parse_args``, taking a clause command's input file after
    its flags too.

    argparse fills a clause command's positionals from their first run:
    in ``entails a --classical f.gnf`` the optional input is already
    consumed, empty, when ``f.gnf`` comes, and is left over. A single
    leftover that is no option is that input; any other leftover is
    refused as ``parse_args`` refuses it.
    """
    args, extra = parser.parse_known_args(argv)
    if getattr(args, "input", "-") is None:
        if len(extra) == 1 and (extra[0] == "-" or not extra[0].startswith("-")):
            args.input = extra.pop()
        else:
            args.input = "-"
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_YES
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (KernelogicError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
