"""`zonosep sep`: one pair's separation verdict and its interval cortege."""

from __future__ import annotations

from ..ground import elements, interval_cortege, set_notation
from ..separation import is_strongly_r_separated, is_weakly_r_separated
from . import _add_json, _add_pair, _command, _emit_json, _parse_set


def cmd_sep_check(args) -> int:
    a = _parse_set(args.a, args.n)
    b = _parse_set(args.b, args.n)
    mode = "strong" if args.strong else "weak"
    verdict = (is_strongly_r_separated if args.strong else is_weakly_r_separated)(a, b, args.r)
    print(
        f"{mode} r={args.r} {set_notation(a)} vs {set_notation(b)}: "
        f"{str(verdict).lower()}"
    )
    _emit_json(
        args,
        {
            "a": elements(a),
            "b": elements(b),
            "mode": mode,
            "r": args.r,
            "verdict": verdict,
        },
    )
    return 0


def cmd_sep_cortege(args) -> int:
    a = _parse_set(args.a, args.n)
    b = _parse_set(args.b, args.n)
    cortege = interval_cortege(a, b)
    print(f"pair {set_notation(a)} vs {set_notation(b)}")
    print(f"degree {cortege.degree}")
    for iv in cortege.intervals:
        print(f"  [{iv.lo},{iv.hi}] side {iv.side}")
    _emit_json(
        args,
        {
            "a": elements(a),
            "b": elements(b),
            "degree": cortege.degree,
            "intervals": cortege.to_json(),
        },
    )
    return 0


def add_commands(sub) -> None:
    check = _command(sub, "check", "evaluate one pair", cmd_sep_check)
    _add_pair(check)
    group = check.add_mutually_exclusive_group(required=True)
    group.add_argument("--weak", action="store_true")
    group.add_argument("--strong", action="store_true")
    check.add_argument("--r", type=int, required=True)
    _add_json(check)
    cortege = _command(sub, "cortege", "interval cortege of one pair", cmd_sep_cortege)
    _add_pair(cortege)
    _add_json(cortege)
