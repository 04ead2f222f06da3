"""Command-line entry point: cover-kit.

Subcommands: gen, check-local, flags, cover, verify, instance.  `flags`
and `cover` both take the stabilisation level n from `stabilize_n` unless
given --n, so they read the same palette.  All artifacts are JSON,
written with sorted keys so identical inputs produce byte-identical
outputs.  Exit codes: 0 success / checks passed, 1 verification failure
or hypothesis violation, 2 input error, 3 patch too small (increase
radius), 4 internal error (a defect in cover-kit).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

from . import __version__
from .builder import build_cover
from .errors import CoverKitError, InputError, PatchTooSmallError
from .flags import Flag, i_fundamental_domain, stabilize_n
from .graph import Graph, json_int
from .instances import QuotientSpec, make_example_K, make_quotient
from .local import is_r_locally
from .tessellation import generate, import_patch
from .verify import check_cover, check_normality

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_TOO_SMALL = 3
EXIT_INTERNAL = 4


def _dump(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path: str, pieces: Iterable[str]) -> None:
    """Write the text `pieces` to the file `path`, one piece at a time."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:  # a missing directory, a directory, no permission
        raise InputError(f"cannot write {path}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not JSON, or nested too deep
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path} does not hold a JSON object")
    return doc


def _flag_arg(text: str | None, option: str) -> Flag | None:
    if not text:
        return None
    try:
        return Flag.from_json_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise InputError(f"{option} is not JSON: {exc}") from exc


def _diag(kind: str, message: str, **extra) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message, **extra}) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cover-kit", description=__doc__)
    ap.add_argument("--version", action="version", version=f"cover-kit {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen", help="generate a {p,q} tessellation patch")
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--q", type=int, required=True)
    gen.add_argument("--radius", type=int, required=True)
    gen.add_argument("-o", "--out", required=True)

    chk = sub.add_parser("check-local", help="certify that H is r-locally-G")
    chk.add_argument("--h", dest="h_path", required=True)
    chk.add_argument("--g", dest="g_path", required=True)
    chk.add_argument("--r", type=int, required=True)
    chk.add_argument("--d-balls", action="store_true", help="compare face cores instead of balls")

    flg = sub.add_parser("flags", help="stabilisation level and fundamental domain")
    flg.add_argument("--g", dest="g_path", required=True)
    flg.add_argument("--n", type=int, default=None, help="override the stabilisation level")

    cov = sub.add_parser("cover", help="build a cover from a patch onto a target graph")
    cov.add_argument("--g", dest="g_path", required=True)
    cov.add_argument("--h", dest="h_path", required=True)
    cov.add_argument("--seed-f", default=None, help="flag JSON in G")
    cov.add_argument("--seed-h", default=None, help="flag JSON in H")
    cov.add_argument("--n", type=int, default=None)
    cov.add_argument("-o", "--out", required=True)

    ver = sub.add_parser("verify", help="verify a built cover")
    ver.add_argument("--cover", dest="cover_path", required=True)
    ver.add_argument("--g", dest="g_path", required=True)
    ver.add_argument("--h", dest="h_path", required=True)
    ver.add_argument("--normality", action="store_true")
    ver.add_argument("--samples", type=int, default=20)
    ver.add_argument("--rng-seed", type=int, default=0)

    inst = sub.add_parser("instance", help="generate a finite test target")
    isub = inst.add_subparsers(dest="kind", required=True)
    for kind in ("torus", "klein", "twisted", "hex-torus"):
        k = isub.add_parser(kind)
        k.add_argument("--m", type=int, required=True)
        k.add_argument("--n", type=int, required=True)
        if kind == "twisted":
            k.add_argument("--s", type=int, required=True)
        k.add_argument("-o", "--out", required=True)
    pk = isub.add_parser("paper-k")
    pk.add_argument("--l", type=int, required=True)
    pk.add_argument("--k", type=int, required=True)
    pk.add_argument("-o", "--out", required=True)
    return ap


def _cmd_gen(args) -> int:
    patch = generate(args.p, args.q, args.radius)
    _write(args.out, patch.json_chunks())
    return EXIT_OK


def _cmd_check_local(args) -> int:
    h = Graph.from_json_dict(_load_json(args.h_path))
    patch = import_patch(_load_json(args.g_path))
    rep = is_r_locally(h, patch, args.r, d_balls=args.d_balls)
    sys.stdout.write(_dump(rep.to_json_dict()))
    return EXIT_OK if rep.ok else EXIT_FAIL


def _cmd_flags(args) -> int:
    patch = import_patch(_load_json(args.g_path))
    n = stabilize_n(patch) if args.n is None else args.n
    delta = i_fundamental_domain(patch, n)
    out = {
        "n": n,
        "delta_size": len(delta),
        "delta": [f.to_json_dict() for f in delta.flags],
        "orbits": [[f.to_json_dict() for f in sorted(orb)] for orb in delta.orbits],
    }
    sys.stdout.write(_dump(out))
    return EXIT_OK


def _cmd_cover(args) -> int:
    patch = import_patch(_load_json(args.g_path))
    h = Graph.from_json_dict(_load_json(args.h_path))
    f = _flag_arg(args.seed_f, "--seed-f")
    flag_h = _flag_arg(args.seed_h, "--seed-h")
    cov = build_cover(patch, h, f=f, flag_h=flag_h, n=args.n)
    _write(args.out, [_dump(cov.to_json_dict())])
    return EXIT_OK


def _cmd_verify(args) -> int:
    patch = import_patch(_load_json(args.g_path))
    h = Graph.from_json_dict(_load_json(args.h_path))
    cover_doc = _load_json(args.cover_path)
    try:
        seed_f = Flag.from_json_dict(cover_doc["seed"]["f"])
        seed_h = Flag.from_json_dict(cover_doc["seed"]["h"])
        n = json_int(cover_doc["n"], "cover n")
        stored = {json_int(a, "map entry"): json_int(b, "map entry") for a, b in cover_doc.get("map", [])}
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed cover JSON: {exc}") from exc
    cov = build_cover(patch, h, f=seed_f, flag_h=seed_h, n=n)
    reports = {"rebuild_matches_file": cov.vertex_map == stored}
    rep = check_cover(cov)
    reports["cover"] = rep.to_json_dict()
    ok = rep.ok and reports["rebuild_matches_file"]
    if args.normality:
        repn = check_normality(cov, samples=args.samples, rng_seed=args.rng_seed)
        reports["normality"] = repn.to_json_dict()
        ok = ok and repn.ok
    reports["ok"] = ok
    sys.stdout.write(_dump(reports))
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_instance(args) -> int:
    if args.kind == "paper-k":
        _write(args.out, [_dump(make_example_K(args.l, args.k).to_json_dict())])
        return EXIT_OK
    kind = {"torus": "torus", "klein": "klein", "twisted": "twisted_torus", "hex-torus": "hex_torus"}[args.kind]
    spec = QuotientSpec(kind, args.m, args.n, getattr(args, "s", 0))
    _write(args.out, [_dump(make_quotient(spec).to_json_dict())])
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "check-local": _cmd_check_local,
        "flags": _cmd_flags,
        "cover": _cmd_cover,
        "verify": _cmd_verify,
        "instance": _cmd_instance,
    }
    try:
        return handlers[args.cmd](args)
    except PatchTooSmallError as exc:
        _diag("patch-too-small", str(exc))
        return EXIT_TOO_SMALL
    except InputError as exc:
        _diag("input", str(exc))
        return EXIT_INPUT
    except CoverKitError as exc:
        _diag("verification", str(exc))
        return EXIT_FAIL
    except Exception as exc:  # a defect: report it as JSON, with its traceback
        import traceback  # only here, so that no command pays for its import

        _diag("internal", f"{type(exc).__name__}: {exc}", traceback=traceback.format_exc().splitlines())
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
