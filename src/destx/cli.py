"""Command-line frontend.

Commands mirror the pipeline stages: build the estimate observer, run the
synthesis to a policy file, verify a policy at bounded depth, replay a
trace, and cross-check the closure computation against its brute-force
oracle.  Exit codes: 0 success, 2 bad input, 3 instance too large,
4 infeasible, 5 verification failure.

Each call is a fresh interpreter, so the arguments are read against one
table, `COMMANDS`, by one short loop, rather than by argparse, whose import
and parser set-up cost every call several milliseconds.  It accepts the
forms argparse does: options before, between or after the positionals,
`--opt value` and `--opt=value`, a unique prefix of an option, `--` to end
the options, and the last of a repeated option wins.  A usage error prints
a usage line and an error line on stderr and exits 2; `-h` or `--help`
prints help on stdout and exits 0.
"""

from __future__ import annotations

import sys as _sys
from types import SimpleNamespace

from .automata import DEFAULT_BUDGET, load_plant, word
from .errors import DestxError, Infeasible, InstanceTooLarge

DEFAULT_DEPTH = 6

_BUDGET = (
    "--budget", int, None,
    "cap on observer states and on the set unions and range sets of each estimate step "
    "and closure family or, "
    "in verify, on the entries of each check's walk, the set unions of PROP1's test of one entry "
    "and the policy states in the brute-force memo's sets (default: %d)" % DEFAULT_BUDGET,
)

# command: (help line, positionals, options); an option is (flag, `str`,
# `int` or a tuple of choices, default, help), and its attribute is the
# flag's name with "_" for "-".  The table and parser build their strings
# with % and +: each call compiles this module again, and before Python 3.12
# the compiler parses every f-string field anew
COMMANDS = {
    "build-observer": ("build the estimate observer and print its size", ("plant",), (
        ("--dot", str, None, "write the observer as a DOT graph"),
        _BUDGET,
    )),
    "synthesize": ("synthesize a transmission policy and write it to out", ("plant", "pairs", "out"), (
        ("--pin-initial", str, None, "root the schedule at the surviving initial containing this labeled state"),
        ("--nz-mode", ("default", "unlabeled"), "default", "how suppression counts are taken during extraction"),
        _BUDGET,
    )),
    "verify": ("run the bounded-depth checks against a policy", ("plant", "policy", "pairs"), (
        _BUDGET,
        ("--depth", int, DEFAULT_DEPTH, "word-length bound (default: %d)" % DEFAULT_DEPTH),
    )),
    "simulate": ("replay a trace and print what the receiver sees", ("plant", "policy"), (
        ("--trace", str, "", "whitespace-separated event sequence"),
    )),
    "oracle-maxs": ("diff the closure family against its brute-force oracle", ("plant",), (_BUDGET,)),
}


def _resolve_budget(flag_value: int | None) -> int:
    return DEFAULT_BUDGET if flag_value is None else flag_value


def _metavar(option) -> str:
    flag, kind = option[:2]
    return "{%s}" % ",".join(kind) if isinstance(kind, tuple) else flag[2:].upper().replace("-", "_")


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: destx [-h] {%s} ..." % ",".join(COMMANDS)
    _line, positionals, options = COMMANDS[command]
    flags = ["[%s %s]" % (o[0], _metavar(o)) for o in options]
    return " ".join(["usage: destx", command, "[-h]", *flags, *positionals])


def _help(command: str | None) -> str:
    lines = [_usage(command), ""]
    if command is None:
        lines += ["  %-15s %s" % (name, entry[0]) for name, entry in COMMANDS.items()]
    else:
        lines += [COMMANDS[command][0], "", "  -h, --help", "      show this help and exit"]
        for o in COMMANDS[command][2]:
            lines += ["  %s %s" % (o[0], _metavar(o)), "      " + o[3]]
    return "\n".join(lines)


def _fail(command: str | None, message: str):
    prog = "destx" if command is None else "destx " + command
    print(_usage(command), prog + ": error: " + message, sep="\n", file=_sys.stderr)
    raise SystemExit(2)


def _option(arg: str, flags) -> tuple[str | None, str | None]:
    """The flag of `flags` that `arg` names in full or by a unique prefix,
    and the value it gives after `=`, if any; `arg` itself when it is an
    option that names no flag, and None when it is a positional, as argparse
    reads a lone "-", a negative number and a string with a space in it."""
    if arg[:1] != "-" or arg == "-":
        return None, None
    if arg[:2] == "-h":
        return "--help", arg[2:] or None
    name, eq, value = arg.partition("=")
    # no flag of a command is a prefix of another, so a full flag matches
    # only itself; a prefix of two flags names none
    matches = [flag for flag in flags if flag.startswith(name)] if name[:2] == "--" and name != "--" else []
    if len(matches) == 1:
        return matches[0], (value if eq else None)
    whole, dot, fraction = arg[1:].partition(".")
    if " " in arg or ((whole + fraction).isdecimal() and (fraction or not dot)):
        return None, None
    return arg, None


def parse_args(argv=None) -> SimpleNamespace:
    """The command and its arguments, read from `argv` (default: the
    process's), with every option of the command at its default unless
    given; exits through `_fail` on a usage error and after `-h`.  The
    command is the first positional, and only `-h` is read before it."""
    command, kinds, names, args = None, {}, (), {}
    positionals, unknown = [], []
    rest = iter(_sys.argv[1:] if argv is None else argv)
    for arg in rest:
        if arg == "--":
            positionals += rest
            break
        flag, value = _option(arg, (*kinds, "--help"))
        if flag == "--help":
            if value is not None:
                _fail(command, "argument -h/--help: ignored explicit argument %r" % value)
            print(_help(command))
            raise SystemExit(0)
        if flag is None and command is None:
            if arg not in COMMANDS:
                _fail(None, "invalid choice: %r (choose from %s)" % (arg, ", ".join(COMMANDS)))
            command = arg
            _line, names, options = COMMANDS[command]
            kinds = {o[0]: o[1] for o in options}
            args = {"command": command, **{o[0][2:].replace("-", "_"): o[2] for o in options}}
        elif flag is None:
            positionals.append(arg)
        elif flag not in kinds:
            unknown.append(arg)
        else:
            if value is None:
                value = next(rest, "--")  # a missing value reads as "--", which is no value
                if _option(value, (*kinds, "--help"))[0]:
                    _fail(command, "argument %s: expected one argument" % flag)
            kind = kinds[flag]
            if isinstance(kind, tuple) and value not in kind:
                _fail(command, "argument %s: invalid choice: %r (choose from %s)" % (flag, value, ", ".join(kind)))
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _fail(command, "argument %s: invalid int value: %r" % (flag, value))
            args[flag[2:].replace("-", "_")] = value
    if command is None:
        _fail(None, "the following arguments are required: command")
    if len(positionals) < len(names):
        _fail(command, "the following arguments are required: " + ", ".join(names[len(positionals):]))
    if unknown or len(positionals) > len(names):
        _fail(command, "unrecognized arguments: " + " ".join(unknown + positionals[len(names):]))
    return SimpleNamespace(**args, **dict(zip(names, positionals)))


def build_parser() -> SimpleNamespace:
    """An object whose `parse_args(argv)` is this module's, as an argparse
    parser's is: `perfbench/traced.py` reads its arguments with it."""
    return SimpleNamespace(parse_args=parse_args)


def cmd_build_observer(args) -> int:
    from .labeled import build_labeled_system
    from .observer import build_observer

    plant = load_plant(args.plant)
    sysd = build_labeled_system(plant)
    obs = build_observer(sysd, state_budget=args.resolved_budget)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(obs.to_dot())
    print(f"states {len(obs.states)}")
    print(f"initials {len(obs.initials)}")
    print(f"transitions {obs.transition_count}")
    if args.dot:
        print(f"dot {args.dot}")
    return 0


def cmd_synthesize(args) -> int:
    from .labeled import build_labeled_system, parse_labeled
    from .observer import build_observer
    from .properties import distinguishability, load_pairs
    from .realization import format_policy, realize_policy
    from .synthesis import consistency_fixpoint, extract_min_transmit

    plant = load_plant(args.plant)
    spec = load_pairs(args.pairs)
    prop = distinguishability(spec, plant)
    sysd = build_labeled_system(plant, prop)
    obs = build_observer(sysd, state_budget=args.resolved_budget)
    gstar = consistency_fixpoint(obs, obs)
    pin = None
    if args.pin_initial is not None:
        member = parse_labeled(args.pin_initial, plant)
        candidates = [z for z in gstar.initials if member in z]
        if not candidates:
            raise Infeasible(f"no surviving initial estimate contains {args.pin_initial}")
        pin = candidates[0]
    sched = extract_min_transmit(gstar, pin_initial=pin, nz_mode=args.nz_mode)
    policy = realize_policy(sysd, sched)
    text = format_policy(policy)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print("feasible")
    print(f"root {sched.initial.render()}")
    print(f"policy-states {len(policy.states)}")
    print(f"policy {args.out}")
    return 0


def cmd_verify(args) -> int:
    from .estimation import check_estimates, check_tracker_containment
    from .properties import distinguishability, load_pairs
    from .realization import load_policy

    plant = load_plant(args.plant)
    policy = load_policy(args.policy, plant)
    spec = load_pairs(args.pairs)
    prop = distinguishability(spec, plant)
    reports = [
        check_tracker_containment(plant, policy, args.depth, args.resolved_budget),
        *check_estimates(plant, policy, prop, args.depth, args.resolved_budget),
    ]
    for r in reports:
        print(r.line())
    return 0 if all(r.ok for r in reports) else 5


def cmd_simulate(args) -> int:
    from .estimation import TraceSession, _render_states
    from .realization import load_policy

    plant = load_plant(args.plant)
    policy = load_policy(args.policy, plant)
    session = TraceSession(plant, policy)
    print(f"initial estimate={_render_states(session.estimate)}")
    for i, e in enumerate(word(args.trace), start=1):
        sent, estimate = session.step(e)
        print(
            f"{i} {e} sent={'Y' if sent else 'N'} proj={','.join(session.observed) or 'ε'} "
            f"estimate={_render_states(estimate)}"
        )
    return 0


def cmd_oracle_maxs(args) -> int:
    from .labeled import build_labeled_system
    from .observer import closure_family
    from .oracle import closure_family_bruteforce

    plant = load_plant(args.plant)
    sysd = build_labeled_system(plant)
    mismatches = 0
    for seed in sysd.states:
        fast = set(closure_family(sysd, seed, args.resolved_budget))
        brute = set(closure_family_bruteforce(sysd, seed))
        if fast != brute:
            mismatches += 1
            only_fast = sorted(z.render() for z in fast - brute)
            only_brute = sorted(z.render() for z in brute - fast)
            print(f"MISMATCH seed={seed.render()} only-fast={only_fast} only-brute={only_brute}")
    print(f"seeds {len(sysd.states)} mismatches {mismatches}")
    return 0 if mismatches == 0 else 5


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        args.resolved_budget = _resolve_budget(getattr(args, "budget", None))
        depth = getattr(args, "depth", DEFAULT_DEPTH)
        if not 0 <= depth <= 32:
            raise DestxError(f"depth must be between 0 and 32, got {depth}")
        if args.resolved_budget < 1:
            raise DestxError(f"budget must be at least 1, got {args.resolved_budget}")
        handler = {
            "build-observer": cmd_build_observer,
            "synthesize": cmd_synthesize,
            "verify": cmd_verify,
            "simulate": cmd_simulate,
            "oracle-maxs": cmd_oracle_maxs,
        }[args.command]
        return handler(args)
    except InstanceTooLarge as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except Infeasible as exc:
        print("infeasible")
        print(f"error: {exc}", file=_sys.stderr)
        return 4
    except (OSError, DestxError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
