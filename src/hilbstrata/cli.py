"""Command-line front end.

Exit status: 0 on success (and on a clean verification sweep), 1 when the
sweep finds a counterexample, 2 on usage or parse errors, on a parallel
sweep whose worker process died and on an output that cannot be written
(a file, or a closed or full standard output); when the reader of
standard output has gone (``hilbstrata enumerate -n 60 | head -1``), the
command ends with no message.
"""

import argparse
import functools
import os
import sys

from .diagrams import (
    CastelnuovoDiagram,
    HilbertFunction,
    iter_diagrams,
    parse_diagram,
    parse_hilbert_function,
)
from .graph import build_hilbert_graph, emit
from .incidence import find_intermediate, is_length_zero, resolve_incidence, verdict_line
from .resolution import generic_betti
from .strata import stratum_dim
from .sweep import available_cpus, verify_range


def _positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


@functools.cache
def _build_parser():
    """The top-level argument parser and its subcommand parsers by name,
    built once per process on the first ``main`` call.  Each subcommand
    parser names its handler as the default ``run``.

    They depend on no input, and parsing leaves them unchanged, so every
    call shares them.
    """
    parser = argparse.ArgumentParser(
        prog="hilbstrata",
        description="Strata of point configurations in the plane: enumeration, "
        "invariants and adjacent-incidence resolution.",
    )
    # The dest only names the missing command in the usage error.
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all diagrams of one weight")
    p.add_argument("-n", type=_positive, required=True, help="weight (number of points)")
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser("betti", help="generator/relation table of a stratum")
    p.add_argument("--phi", required=True, help="diagram or Hilbert function (use trailing '..')")
    p.set_defaults(run=_cmd_betti)

    p = sub.add_parser("dim", help="dimension of a stratum")
    p.add_argument("--phi", required=True, help="diagram or Hilbert function")
    p.set_defaults(run=_cmd_dim)

    p = sub.add_parser("resolve", help="resolve the incidence of an adjacent pair")
    p.add_argument("--phi", required=True, help="smaller Hilbert function or diagram")
    p.add_argument("--psi", required=True, help="larger Hilbert function or diagram")
    p.set_defaults(run=_cmd_resolve)

    p = sub.add_parser("graph", help="emit the cover graph of one weight")
    p.add_argument("-n", type=_positive, required=True)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(run=_cmd_graph)

    p = sub.add_parser("verify", help="sweep all covers of a weight range")
    p.add_argument("--n-min", type=_positive, default=1)
    p.add_argument("--n-max", type=_positive, required=True)
    p.add_argument(
        "--workers", type=_positive, help="worker processes (default: every CPU available)"
    )
    p.set_defaults(run=_cmd_verify)
    return parser, sub.choices


def _function_arg(text):
    """Accept a Hilbert function ('..' suffix) or a diagram; return the function."""
    if text.strip().endswith(".."):
        return parse_hilbert_function(text)
    return HilbertFunction(parse_diagram(text))


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_enumerate(args, out):
    for s in iter_diagrams(args.n):
        out.write(CastelnuovoDiagram._unchecked(s).render() + "\n")
    return 0


def _cmd_betti(args, out):
    hf = _function_arg(args.phi)
    out.write(generic_betti(hf).render() + "\n")
    return 0


def _cmd_dim(args, out):
    hf = _function_arg(args.phi)
    out.write(f"{stratum_dim(hf)}\n")
    return 0


def _cmd_resolve(args, out):
    phi = _function_arg(args.phi)
    psi = _function_arg(args.psi)
    pair = is_length_zero(phi, psi)
    if pair is None:
        between = find_intermediate(phi, psi)
        if between is not None:
            return _usage_error(
                "pair is not length zero: "
                f"{between.render()} lies strictly between the two functions"
            )
        return _usage_error(
            "pair is not length zero: the difference is not a run of ones "
            "(not a single-square move)"
        )
    out.write(verdict_line(pair, resolve_incidence(pair)) + "\n")
    return 0


def _cmd_graph(args, out):
    data = emit(build_hilbert_graph(args.n), args.format)
    if args.output:
        try:
            with open(args.output, "wb") as handle:
                handle.write(data)
        except OSError as exc:
            return _usage_error(f"cannot write {args.output}: {exc.strerror or exc}")
    else:
        out.write(data.decode("utf-8"))
    return 0


def _cmd_verify(args, out):
    if args.n_min > args.n_max:
        return _usage_error("--n-min must not exceed --n-max")
    bad = []
    workers = args.workers or available_cpus()
    for summary in verify_range(range(args.n_min, args.n_max + 1), workers=workers):
        out.write(
            f"n={summary.n}: diagrams={summary.diagrams} covers={summary.covers} "
            f"incident={summary.incident} "
            f"not_incident={summary.covers - summary.incident} "
            f"type_zero={summary.type_zero}"
            + (" FAIL" if summary.failures else "")
            + "\n"
        )
        out.flush()  # each line leaves as soon as its weight is swept, pipe or not
        bad.extend(summary.failures)
    if bad:
        for line in bad:
            out.write("counterexample " + line + "\n")
        return 1
    out.write("all equivalences hold\n")
    return 0


def _parse(argv):
    """The arguments of ``argv``, parsed once, with the command's handler
    as ``run``; raises SystemExit as argparse does.  The subcommand named
    first parses the rest.  Anything else (no or an unknown command, an
    option first, arguments left over) goes through the top-level parser,
    so every usage text and error is the one a full parse prints."""
    parser, commands = _build_parser()
    if argv and argv[0] in commands:
        args, extra = commands[argv[0]].parse_known_args(argv[1:])
        if not extra:
            return args
    return parser.parse_args(argv)


def _silence_stdout():
    """Point standard output at the null device, so the interpreter's last
    flush of what is still buffered cannot fail as the last write did."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # not a file: nothing flushes it at exit
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _run(argv) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.run(args, sys.stdout)
    except (ValueError, ChildProcessError) as exc:  # the latter: a sweep worker died
        return _usage_error(str(exc))


def main(argv=None) -> int:
    if sys.stdout is None:  # the process started without one (``>&-``)
        return _usage_error("standard output is closed")
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except OSError as exc:
        _silence_stdout()
        return 2 if isinstance(exc, BrokenPipeError) else _usage_error(exc.strerror or str(exc))
    return code


if __name__ == "__main__":
    sys.exit(main())
