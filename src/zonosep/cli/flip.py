"""`zonosep flip`: the witness pools of a flip site, and one flip applied."""

from __future__ import annotations

from .. import flips as fl
from ..ground import elements, set_notation
from ..systems import SetSystem
from . import _add_json, _add_site, _command, _emit_json, _parse_set


def _parse_members(text: str, n: int) -> list[int]:
    if text in ("", "-"):
        return []
    return [_parse_set(part, n) for part in text.split(";")]


def _site(args) -> fl.FlipSite:
    return fl.FlipSite(args.n, *(_parse_set(text, args.n) for text in (args.x, args.p, args.q)))


def cmd_flip_witnesses(args) -> int:
    site = _site(args)
    print(f"site {site.label()} on [{args.n}]")
    print(f"parity {site.parity}, r = {site.r}")
    up = fl.neighbors_up(site).members
    down = fl.neighbors_down(site).members
    print(f"raised witnesses: {', '.join(set_notation(m) for m in up)}")
    print(f"lowered witnesses: {', '.join(set_notation(m) for m in down)}")
    blob = {
        "site": site.to_json(),
        "up": [elements(m) for m in up],
        "down": [elements(m) for m in down],
    }
    if site.parity == fl.PARITY_ODD:
        pool = fl.neighbors(site)
        print(f"full pool: {len(pool.members)} members")
        blob["pool"] = [elements(m) for m in pool.members]
    _emit_json(args, blob)
    return 0


def cmd_flip_apply(args) -> int:
    site = _site(args)
    w = SetSystem.from_masks(args.n, _parse_members(args.members, args.n))
    flipped = fl.apply_flip(w, site, args.direction, args.mode)
    print(f"{args.direction} flip at {site.label()}: ok")
    print(f"result: {flipped}")
    _emit_json(args, flipped.to_json())
    return 0


def add_commands(sub) -> None:
    witnesses = _command(sub, "witnesses", "witness pools of a site", cmd_flip_witnesses)
    _add_site(witnesses)
    _add_json(witnesses)
    apply_ = _command(sub, "apply", "apply one flip to a collection", cmd_flip_apply)
    _add_site(apply_)
    apply_.add_argument("--members", required=True, help="semicolon-separated sets")
    apply_.add_argument(
        "--direction", choices=(fl.RAISE, fl.LOWER), default=fl.RAISE
    )
    apply_.add_argument(
        "--mode", choices=(fl.MODE_SHARP, fl.MODE_FULL), default=fl.MODE_SHARP
    )
    _add_json(apply_)
