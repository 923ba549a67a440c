"""Command-line surface.

Four subcommands: ``verify`` runs registered claims over flag-chosen
ranges, ``classify`` emits the regular-subgroup classification as JSON,
``graph`` analyses one circulant, and ``scan`` streams one NDJSON record
per inverse-closed connection set.  Every command writes its records to
one stream, stdout or ``--out``, opened before any work starts, and
writes and flushes each record as soon as it is known: a claim report
when its claim has run, a width's classification when that width is
done, a census record when its class is known.
Identical invocations produce byte-identical record streams
(deterministic ordering, no timestamps inside records; runtimes go to
stderr).

Exit codes: 0 all passed, 1 verification failure or an output stream
closed by its reader, 2 usage error, 3 resource bound exceeded
(override with --force).

Element notation used in reports: "a^3*x*y^2" means translate by 3,
then negate, then multiply by 5^2; "1" is the identity.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import closing, contextmanager
from math import inf
from typing import Iterable, Iterator, Optional, TextIO

from . import circulant as circ_mod
from . import claims
from . import regular_classify as rc

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BOUND = 3

DEFAULT_MAX_HOL_WIDTH = 8
FORCED_MAX_HOL_WIDTH = 64

VERIFY_FLAGS = ("n", "modulus", "samples", "seed")  # each claim reads some


class BoundExceeded(Exception):
    """A width or modulus above its bound; ``main`` exits EXIT_BOUND."""


def _resolve_bounds(args: argparse.Namespace) -> None:
    """Resolve the invocation's bounds once, onto ``args``: the config
    file and the settings are read and checked once, here, and then
    --force lifts the degree bound (``inf``) and raises the width bound
    to ``forced_hol_width``, the configured one or 64 if that is higher.
    Nothing else reads the environment."""
    config = _load_config()
    args.max_degree = _max_degree(config)
    args.max_hol_width = _integer_setting(
        config.get("max_hol_width", DEFAULT_MAX_HOL_WIDTH), "config max_hol_width"
    )
    args.forced_hol_width = max(args.max_hol_width, FORCED_MAX_HOL_WIDTH)
    if args.force:
        args.max_degree, args.max_hol_width = inf, args.forced_hol_width


def _within_bound(what: str, value: int, bound: float, forced: float = inf) -> None:
    """Raise BoundExceeded when ``value`` exceeds the invocation's ``bound``;
    the message hints at --force exactly when ``forced``, the bound under
    --force, holds ``value``."""
    if value > bound:
        hint = " (use --force)" if value <= forced else ""
        raise BoundExceeded(f"{what} {value} exceeds bound {bound}{hint}")


def _load_config() -> dict:
    """The JSON object in the file named by HOLOCIRC_CONFIG; {} when unset.

    A file that is missing, unreadable, not JSON or not a JSON object
    raises ValueError, a usage error."""
    path = os.environ.get("HOLOCIRC_CONFIG")
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"HOLOCIRC_CONFIG {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"HOLOCIRC_CONFIG {path}: not JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"HOLOCIRC_CONFIG {path}: not a JSON object")
    return cfg


def _max_degree(config: dict) -> int:
    """The vertex-count bound: HOLOCIRC_MAX_DEGREE, else ``max_degree`` in
    the config file (checked either way), else circulant.DEFAULT_MAX_DEGREE."""
    value = os.environ.get("HOLOCIRC_MAX_DEGREE")
    variable = _integer_setting(value, "HOLOCIRC_MAX_DEGREE") if value else None
    configured = _integer_setting(
        config.get("max_degree", circ_mod.DEFAULT_MAX_DEGREE), "config max_degree"
    )
    return variable or configured


def _integer_setting(value: object, name: str) -> int:
    """A bound read from the environment or the config file, as an int:
    an int, or a string that spells one, of at least 1 (no graph or
    width meets a lower bound).  Anything else raises a ValueError that
    names the setting and the bad value."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


def _parse_range(text: str) -> tuple[int, int]:
    """``--n A..B`` or ``--n A``; a reversed range would check nothing and
    a width below rc.MIN_WIDTH has no normal form, so both are usage
    errors."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise ValueError(f"--n expects integers A..B or A, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"reversed range {text!r}: {lo} > {hi}")
    if lo < rc.MIN_WIDTH:
        raise ValueError(
            f"--n {text!r} starts below {rc.MIN_WIDTH}, the smallest width "
            "with a normal form"
        )
    return lo, hi


def _shard(text: str) -> tuple[int, int]:
    """``--shard A/B``: shard A of B, 0 <= A < B."""
    try:
        a, b = text.split("/")
        shard, shards = int(a), int(b)
    except ValueError:
        shard = shards = 0
    if not 0 <= shard < shards:
        raise argparse.ArgumentTypeError(f"expected A/B with 0 <= A < B, got {text!r}")
    return shard, shards


def _at_least_one(text: str) -> int:
    """``--jobs N`` or ``--samples N``: a count of at least 1 (no worker
    or no sample would do nothing)."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return count


@contextmanager
def _opened(path: Optional[str], flag: str) -> Iterator[TextIO]:
    """The stream a command writes to: stdout when ``path`` is None, else
    ``path`` opened for writing and closed afterwards.  A path that cannot
    be opened is a usage error naming the flag and the path."""
    if path is None:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot open {flag} {path!r}: {exc.strerror}") from None
    with fh:
        yield fh


def _emit(records: Iterable[dict], fmt: str, out: TextIO) -> None:
    """Write each record as it arrives, and flush it.  The ``json`` array
    has the bytes of ``json.dumps(records, indent=2, sort_keys=True)``."""
    if fmt == "json":
        opening = "[\n"
        for record in records:
            body = json.dumps(record, indent=2, sort_keys=True)
            out.write(opening + "  " + body.replace("\n", "\n  "))
            out.flush()
            opening = ",\n"
        out.write("[]\n" if opening == "[\n" else "\n]\n")
        out.flush()
        return
    line = _as_text if fmt == "text" else (lambda r: json.dumps(r, sort_keys=True))
    for record in records:
        out.write(line(record) + "\n")
        out.flush()


def _as_text(record: dict) -> str:
    return " ".join(f"{k}={json.dumps(v, sort_keys=True)}" for k, v in record.items())


def cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    if args.claim == "all":
        ids = claims.claim_ids()
    elif args.claim in claims.REGISTRY:
        ids = [args.claim]
    else:
        raise ValueError(f"unknown claim {args.claim!r}; known: {', '.join(claims.claim_ids())}")
    if args.claim != "all":
        reads = claims.REGISTRY[args.claim].flags
        unread = [
            flag for flag in VERIFY_FLAGS
            if getattr(args, flag) is not None and flag not in reads
        ]
        if unread:
            raise ValueError(
                f"claim {args.claim} does not read --{unread[0]}; it reads "
                + (", ".join(f"--{flag}" for flag in reads) or "no flag")
            )

    params: dict = {}
    if args.n is not None:
        lo, hi = _parse_range(args.n)
        for claim_id in ids:
            widest = claims.REGISTRY[claim_id].max_n
            if widest is not None and hi > widest:
                raise ValueError(
                    f"--n {args.n!r} ends above {widest}: claim {claim_id} checks "
                    f"widths {rc.MIN_WIDTH}..{widest}"
                )
        _within_bound("width", hi, args.max_hol_width, args.forced_hol_width)
        params["n"] = (lo, hi)
    if args.modulus is not None:
        if args.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {args.modulus}")
        _within_bound("modulus", args.modulus, args.max_degree)
        params["modulus"] = args.modulus
    if args.samples is not None:
        params["samples"] = args.samples
    if args.seed is not None:
        params["seed"] = args.seed

    failed = False

    def reports() -> Iterator[dict]:
        nonlocal failed
        for claim_id in ids:
            reads = claims.REGISTRY[claim_id].flags
            report = claims.run_claim(
                claim_id, {k: v for k, v in params.items() if k in reads}
            )
            failed |= report.status == "fail"
            print(
                f"[{report.status}] {claim_id}: {claims.REGISTRY[claim_id].description}"
                f" ({report.runtime:.2f}s)",
                file=sys.stderr,
            )
            yield report.to_dict()

    _emit(reports(), args.format, out)
    return EXIT_FAIL if failed else EXIT_OK


def cmd_classify(args: argparse.Namespace, out: TextIO) -> int:
    lo, hi = _parse_range(args.n)
    if hi > rc.ENUM_MAX_N:
        raise ValueError(
            f"--n {args.n!r} ends above {rc.ENUM_MAX_N}: classify covers widths "
            f"{rc.MIN_WIDTH}..{rc.ENUM_MAX_N}"
        )
    _within_bound("width", hi, args.max_hol_width, args.forced_hol_width)
    _emit(_classification(lo, hi), args.format, out)
    return EXIT_OK


def _classification(lo: int, hi: int) -> Iterator[dict]:
    """The classification records of widths lo..hi, one width at a time:
    its representatives, the subgroups enumerated at widths up to
    rc.FULL_ENUM_MAX_N, then a note on coinciding representatives.  Both
    are built once per width and process (``verify`` shares them), by
    the one gamma-function engine; the enumerated subgroups' generators
    come from one greedy walk up an index-two chain inside each
    subgroup."""
    for n in range(lo, hi + 1):
        reps = rc.representatives(n)
        yield from (r.to_dict() | {"role": "representative"} for r in reps)
        if n <= rc.FULL_ENUM_MAX_N:
            for r in rc.enumerate_regular_subgroups(n):
                yield r.to_dict() | {"role": "enumerated"}
        coincidences = [types for _, types in rc.canonical_classes(reps) if len(types) > 1]
        if coincidences:
            yield {
                "role": "coincidence",
                "n": n,
                "types": [[t.label() for t in grp] for grp in coincidences],
            }


def cmd_graph(args: argparse.Namespace, out: TextIO) -> int:
    n = args.modulus
    _within_bound("modulus", n, args.max_degree)
    try:
        conn = [int(tok) for tok in args.set.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--set expects comma-separated integers, got {args.set!r}") from None
    circ = circ_mod.build(n, conn)
    if args.edges:
        with _opened(args.edges, "--edges") as fh:
            for u, v in circ.edges():
                fh.write(f"{u} {v}\n")
    aut = circ_mod.automorphism_group(circ)
    verdict = circ_mod.nnn_verdict(circ, aut)
    record = {
        "n": n,
        "S": sorted(circ.conn),
        "aut_order": aut.order,
        "aut_G_S": list(aut.multipliers),
        "normal": verdict.is_normal_for_GR,
        "within_holomorph": aut.within_holomorph,
        "w_subgroups": circ_mod.w_subgroups(circ),
        "regular_cyclic_subgroups": [
            {
                "generator": list(c.generator),
                "normal_in_aut": c.normal_in_aut,
                "is_translation_group": c.is_translation_group,
            }
            for c in verdict.regular_cyclic
        ],
        "nnn": verdict.nnn,
        "connected": circ.is_connected(),
        "degenerate": circ.is_degenerate(),
    }
    _emit([record], args.format, out)
    return EXIT_OK


def cmd_scan(args: argparse.Namespace, out: TextIO) -> int:
    n = args.modulus
    _within_bound("modulus", n, args.max_degree)
    total = circ_mod.census_size(n)
    shard, shards = args.shard
    start, stop = circ_mod.shard_bounds(total, shard, shards)

    t0 = time.perf_counter()
    records = circ_mod.scan_range(n, start, stop, args.connected_only, args.jobs)
    with closing(records):
        _emit(records, args.format, out)
    print(
        f"scanned {stop - start} connection sets on Z_{n} in "
        f"{time.perf_counter() - t0:.2f}s",
        file=sys.stderr,
    )
    return EXIT_OK


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("claim", help="claim id, or 'all'")
    p.add_argument("--n", help="width or width range, e.g. 4 or 3..5")
    p.add_argument("--modulus", type=int, help="graph modulus for scan claims")
    p.add_argument("--samples", type=_at_least_one, help="randomized sample count")
    p.add_argument("--seed", type=int, help="randomized seed")
    p.set_defaults(func=cmd_verify)


def _classify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--n", required=True, help=f"width or range, {rc.MIN_WIDTH}..{rc.ENUM_MAX_N}"
    )
    p.set_defaults(func=cmd_classify)


def _graph_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument(
        "--set", required=True, help="comma-separated connection set, e.g. 1,3,13,15"
    )
    p.add_argument("--edges", help="also write an edge list ('u v' lines) here")
    p.set_defaults(func=cmd_graph)


def _scan_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument(
        "--shard", type=_shard, default=(0, 1), help="A/B: contiguous shard A of B"
    )
    p.add_argument("--connected-only", action="store_true")
    p.add_argument("--jobs", type=_at_least_one, default=1, help="worker processes")
    p.set_defaults(func=cmd_scan)


# Each command's help line and arguments, in the order ``--help`` lists them.
COMMANDS = {
    "verify": ("run a registered claim check", _verify_arguments),
    "classify": ("regular-subgroup classification", _classify_arguments),
    "graph": ("analyze one circulant", _graph_arguments),
    "scan": ("census scan of one modulus", _scan_arguments),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``holocirc`` parser.  Given the name of a command, only that
    command's subparser is built, under the same top-level parser, so that
    an invocation does not pay for the three it will not run; given None or
    any other name, all four are.  Either way every help text, usage line
    and error reads the same."""
    parser = argparse.ArgumentParser(
        prog="holocirc",
        description=(
            "exact holomorph arithmetic, regular-subgroup classification, "
            "and normality scans for circulant graphs"
        ),
    )
    single = command in COMMANDS
    # One command's parser still names all four in the usage line that an
    # unrecognized argument prints; the full parser keeps argparse's own
    # metavar, which also names the missing command in its error.
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(COMMANDS) + "}" if single else None,
    )
    built = {}
    for name in [command] if single else COMMANDS:
        help_line, add_arguments = COMMANDS[name]
        built[name] = sub.add_parser(name, help=help_line)
        add_arguments(built[name])

    for name in ("verify", "classify"):
        if name in built:
            built[name].add_argument(
                "--jobs", type=_at_least_one, default=1,
                help="accepted for compatibility and ignored: this command runs in one process",
            )
    for p in built.values():
        p.add_argument("--format", choices=("json", "ndjson", "text"), default="ndjson")
        p.add_argument("--out", help="write records to this path instead of stdout")
        p.add_argument(
            "--force", action="store_true", help="override configured resource bounds"
        )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _resolve_bounds(args)
        with circ_mod.using_degree_bound(args.max_degree), _opened(
            args.out, "--out"
        ) as out:
            return args.func(args, out)
    except BoundExceeded as exc:
        print(exc, file=sys.stderr)
        return EXIT_BOUND
    except circ_mod.DegreeBoundError as exc:
        hint = "" if args.force else " (use --force)"  # --force lifts this bound
        print(f"resource bound: {exc}{hint}", file=sys.stderr)
        return EXIT_BOUND
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        print("output closed by its reader; stopped early", file=sys.stderr)
        if args.out is None:
            _discard_stdout()
        return EXIT_FAIL


def _discard_stdout() -> None:
    """Point the stdout descriptor at the null device, so that the
    interpreter's last flush of the records still buffered for a closed
    pipe neither fails nor prints a traceback."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not a descriptor: nothing is flushed to a pipe at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
