"""Command-line front end: relation checks, operator application, limits.

Exit codes: 0 all checks passed, 1 a check failed or a limit cell is
unresolved, 2 configuration or input error.
Reports are JSON; with --no-timing they are byte-identical across runs of
the same configuration and seed.  All scalar output is exact; nothing is
ever printed as a decimal approximation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BqtError
from .limits import CompatSeqSpec, dim_table
from .lspaces import FLAVORED_ALPHABET, certify_flavor_membership, resolve
from .polyrep import apply_word, word_from_json
from .relations import check_compatibility, make_realization, run_probabilistic
from .schedule import SUITES, Unit, check_ids, check_units
from .tableaux import check_shape


def parse_shape(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"shape must be a comma list of integers, got {text!r}")
    return check_shape(parts)


def _module_descriptor(args) -> dict:
    desc = {"module": args.module, "n": args.n}
    if args.module == "murnaghan":
        desc["shape"] = list(parse_shape(args.shape))
    if getattr(args, "demazure", "1-q") != "1-q":
        if args.module != "poly" or args.suite not in SUITES:
            raise ValueError(
                f"--demazure {args.demazure} applies to the polynomial module's "
                f"{', '.join(SUITES)} suites only"
            )
        desc["demazure_coefficient"] = args.demazure
    return desc


def _sequence(polynomial: bool, args) -> CompatSeqSpec:
    if polynomial:
        return CompatSeqSpec("polynomial")
    return CompatSeqSpec("murnaghan", parse_shape(args.shape))


def cmd_check(args) -> int:
    desc = _module_descriptor(args)
    params = {"dmax": args.dmax, "kmax": args.kmax}
    seed = args.seed

    if args.suite == "compat":
        if args.probabilistic:
            raise ValueError("the compat suite has no probabilistic mode; it runs exact only")
        reports = check_compatibility(_sequence(args.module == "poly", args), args.n, args.dmax)
        report_objs = [r.to_obj() for r in reports]
    elif args.probabilistic:
        unit = Unit(desc, args.suite, params)
        reports = run_probabilistic(
            lambda ring: check_ids(unit, make_realization(desc, ring)), seed=seed
        )
        report_objs = [r.to_obj() for r in reports]
    else:
        report_objs = check_units([Unit(desc, args.suite, params)], args.jobs)[0]

    if args.no_timing:
        for obj in report_objs:
            obj["millis"] = 0.0
    status = all(obj["status"] == "pass" for obj in report_objs)
    doc = {
        "command": "check",
        "suite": args.suite,
        "realization": desc,
        "params": {"n": args.n, "dmax": args.dmax, "kmax": args.kmax},
        "seed": seed,
        "mode": "probabilistic" if args.probabilistic else "exact",
        "status": "pass" if status else "fail",
        "reports": report_objs,
    }
    _emit(doc, args.out)
    for obj in report_objs:
        flavor = f" k={obj['flavor']}" if "flavor" in obj else ""
        print(
            f"{obj['status'].upper():4s} {obj['relation_id']}{flavor} "
            f"(vectors={obj['vectors_checked']})",
            file=sys.stderr,
        )
    return 0 if status else 1


def _read_vector(M, obj):
    """A vector of M's space from its JSON object; ValueError when it is not one."""
    try:
        vec = M.vector_type.from_obj(obj)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed vector JSON: {type(exc).__name__} {exc}") from None
    if vec.meta != M.meta:
        raise ValueError(f"vector of space {vec.meta} does not belong to module {M.meta}")
    for key in vec.coeffs:
        if not M.contains_key(key):
            raise ValueError(f"basis key {key!r} does not belong to module {M.meta}")
    return vec


def cmd_act(args) -> int:
    desc = _module_descriptor(args)
    M = make_realization(desc)
    try:
        with open(args.infile) if args.infile != "-" else sys.stdin as fh:
            payload = json.load(fh)
        word_data = json.loads(args.word)
    except RecursionError:  # bad input; a recursion in the engine stays a traceback
        raise ValueError("JSON input is nested too deeply") from None
    if isinstance(payload, dict) and "flavor" in payload:
        k = payload["flavor"]
        if type(k) is not int:
            raise ValueError(f"flavor {k!r} is not an integer")
        v = _read_vector(M, payload.get("vector"))
        if not certify_flavor_membership(M, v, k):
            raise ValueError(f"vector does not lie in the flavor-{k} space of {M.meta}")
        word, k_out = resolve(word_from_json(word_data, FLAVORED_ALPHABET), k)
        out = {"flavor": k_out, "vector": apply_word(M, v, word, FLAVORED_ALPHABET).to_obj()}
    else:
        out = apply_word(M, _read_vector(M, payload), word_from_json(word_data)).to_obj()
    _emit(out, args.out)
    return 0


def cmd_limit(args, as_text: bool = False) -> int:
    seq = _sequence(args.seq in ("pol", "polynomial"), args)
    table = dim_table(seq, args.kmax, args.dmax, window=args.window, n_cap=args.ncap)
    unresolved = [c for c in table["cells"] if c.get("dim") is None]
    if as_text:
        dims_by_kd = {(c["k"], c["d"]): c for c in table["cells"]}
        header = "k\\d " + " ".join(f"{d:>5d}" for d in range(args.dmax + 1))
        print(header)
        for k in range(args.kmax + 1):
            row = [f"{k:>3d} "]
            for d in range(args.dmax + 1):
                cell = dims_by_kd[(k, d)]
                row.append(f"{cell['dim'] if cell['dim'] is not None else '?':>5}")
            print(" ".join(row))
    else:
        _emit(table, args.out)
    if unresolved:
        print(f"warning: {len(unresolved)} unresolved cells", file=sys.stderr)
        return 1
    return 0


def _emit(doc, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path and out_path != "-":
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqt",
        description="Exact checker for flavored operator algebras built from "
        "polynomial and tableau modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_module_args(p):
        p.add_argument("--module", choices=["poly", "murnaghan"], default="poly")
        p.add_argument("--shape", default="", help="partition, e.g. 2,1 (murnaghan)")
        p.add_argument("--n", type=int, required=True, help="rank")

    p = sub.add_parser("check", help="run a relation suite")
    p.add_argument("suite", choices=[*SUITES, "compat"])
    add_module_args(p)
    p.add_argument("--dmax", type=int, default=2)
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--probabilistic", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--no-timing", action="store_true")
    p.add_argument("--demazure", choices=["1-q", "q-1"], default="1-q",
                   help="divided-difference coefficient; q-1 is the broken variant")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("act", help="apply a generator word to a vector file")
    add_module_args(p)
    p.add_argument("--word", required=True, help='JSON word, e.g. [["X",1],["Tinv",2]]')
    p.add_argument("--in", dest="infile", default="-", help="vector JSON file or -")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_act)

    def add_limit_args(p):
        p.add_argument("--seq", choices=["pol", "polynomial", "mur", "murnaghan"], default="pol")
        p.add_argument("--shape", default="")
        p.add_argument("--kmax", type=int, default=2)
        p.add_argument("--dmax", type=int, default=4)
        p.add_argument("--window", type=int, default=2)
        p.add_argument("--ncap", type=int, default=8)
        p.add_argument("--out", default=None)

    p = sub.add_parser("limit", help="stable-limit dimension table as JSON")
    add_limit_args(p)
    p.set_defaults(func=lambda a: cmd_limit(a, as_text=False))

    p = sub.add_parser("dims", help="stable-limit dimension table as text")
    add_limit_args(p)
    p.set_defaults(func=lambda a: cmd_limit(a, as_text=True))

    return parser


def _check_sizes(args) -> None:
    """ValueError when --dmax, --kmax, --jobs or --ncap is negative."""
    for name in ("dmax", "kmax", "jobs", "ncap"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ValueError(f"--{name} must be nonnegative, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_sizes(args)
        return args.func(args)
    except (ValueError, BqtError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
