"""Command-line front end: diagnostic reports, kernel tables, prices.

Exit codes: 0 on success (all checks pass / table written / price within
oracle bounds), 1 when a diagnostic check or oracle comparison fails, 2 for
invalid parameters, a kernel value, tail, price or check residual that is not
finite, or a Monte Carlo value with no spread that differs from the spectral
price.

Every input goes through one parser. A `--params file.json` is read as
`--key=value` flags placed before the written ones, so a file value is typed
and checked as its flag is, a switch (`bridge`, `flip_beta`) takes JSON true
or false, and a written flag wins. Keys that name no option of the command
are skipped; `model`, `params` and `out` are never read from a file. Flags
are not abbreviated. A diagnose report's `params_echo`, given back with the
same `--model`, reproduces the report; a price's `config_echo` does not, as
it holds no sigma, r, barriers or spot. CSV output is RFC-4180 with floats
at 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

import numpy as np

from .barrier import BarrierParams
from .harmonic import HarmonicParams
from .kernels import KernelTable, kernel_rows
from .market import MarketParams, beta_is_degenerate
from .pb_core import run_all_checks
from .pricing import MCConfig, Payoff, price_mc_barrier, price_spectral
from .systems import barrier_system, harmonic_system

KERNEL_COLUMNS = ("x", "x_prime", "tau", "which", "method", "value",
                  "tail_estimate", "rel_disagreement")
Z_SCORE_LIMIT = 3.0


def _csv_column(values: Optional[np.ndarray], rows: int) -> List[str]:
    """One CSV column as text: floats at 17 significant digits, None as empty.

    Each distinct float is formatted once, keyed by its bit pattern so that
    -0.0 and 0.0 stay apart; a dict, not np.unique, whose sort would map
    half a megabyte of sort code into every process that writes a table.
    """
    if values is None:
        return [""] * rows
    if values.dtype.kind == "f":
        bits = values.view(np.uint64).tolist()
        first = dict(zip(bits, values.tolist()))
        texts = dict(zip(first, map("%.17g".__mod__, first.values())))
        return list(map(texts.__getitem__, bits))
    return values.tolist()


def _kernel_csv(table: KernelTable) -> str:
    """The table as RFC-4180 CSV with a header row; no field needs quoting."""
    columns = [_csv_column(getattr(table, name), len(table)) for name in KERNEL_COLUMNS]
    lines = [",".join(KERNEL_COLUMNS), *map(",".join, zip(*columns))]
    return "\r\n".join(lines) + "\r\n"


def _parse_point_list(spec: str) -> List[float]:
    """Either comma-separated values or an inclusive lo:hi:count range."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"range syntax is lo:hi:count, got {spec!r}")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError(f"range count must be >= 1, got {count}")
        if count == 1:
            return [lo]
        step = (hi - lo) / (count - 1)
        return [lo + i * step for i in range(count)]
    values = [float(tok) for tok in spec.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"empty point list {spec!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbk", allow_abbrev=False,
        description="Ladder-structure diagnostics, pricing kernels, and option "
                    "prices for the whole-line and double-barrier models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, summary: str, barriers: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--model", choices=("harmonic", "barrier"), required=True)
        p.add_argument("--sigma", type=float, default=0.2,
                       help="volatility per sqrt(year), default %(default)s")
        p.add_argument("--r", type=float, default=0.05,
                       help="risk-free rate per year, default %(default)s")
        p.add_argument("--w", type=float, default=0.0,
                       help="harmonic shift constant, default %(default)s")
        if barriers:  # price takes its barriers in price units
            p.add_argument("--a", type=float, help="lower log-barrier (barrier model)")
            p.add_argument("--b", type=float, help="upper log-barrier (barrier model)")
        p.add_argument("--params", metavar="FILE",
                       help="JSON file whose keys are read as this command's flags, "
                            "before the ones written here, which win")
        p.add_argument("--out", metavar="FILE",
                       help="write output here instead of stdout")
        return p

    p_diag = add_command("diagnose", "run the full verification suite")
    p_diag.add_argument("--nmax", type=int, default=20,
                        help="highest family index exercised, default %(default)s")
    p_diag.add_argument("--route", choices=("exact", "grid"), default="exact",
                        help="harmonic operator realization, default %(default)s")

    p_kern = add_command("kernel", "tabulate kernel values as CSV")
    p_kern.add_argument("--x", default="0.0",
                        help="comma list or lo:hi:count range of x points; one "
                             "that starts with '-' needs '=': --x=-0.5:0.5:40")
    p_kern.add_argument("--x-prime", default="0.1",
                        help="comma list or lo:hi:count range of x' points; one "
                             "that starts with '-' needs '=': --x-prime=-0.5,0.1")
    p_kern.add_argument("--tau", default="0.5", help="comma list of maturities")
    p_kern.add_argument("--which", choices=("p1", "p2", "both"), default="both")
    p_kern.add_argument("--method", choices=("spectral", "closed", "both"), default="both")
    p_kern.add_argument("--flip-beta", action="store_true")

    p_price = add_command("price", "price an option off the kernel", barriers=False)
    p_price.add_argument("--payoff", choices=("call", "put", "digital_call"), default="call")
    p_price.add_argument("--strike", type=float, default=100.0)
    p_price.add_argument("--s0", type=float, default=100.0,
                         help="spot in price units (log taken internally)")
    p_price.add_argument("--x", type=float, default=0.0,
                         help="spot log-price (harmonic model)")
    p_price.add_argument("--lower", type=float, help="lower barrier in price units")
    p_price.add_argument("--upper", type=float, help="upper barrier in price units")
    p_price.add_argument("--tau", type=float, default=0.5)
    p_price.add_argument("--which", choices=("p1", "p2"), default="p1")
    p_price.add_argument("--flip-beta", action="store_true")
    p_price.add_argument("--oracle", choices=("none", "mc"), default="none")
    p_price.add_argument("--paths", type=int, default=MCConfig.paths)
    p_price.add_argument("--steps", type=int, default=MCConfig.steps)
    p_price.add_argument("--seed", type=int, default=MCConfig.seed)
    p_price.add_argument("--bridge", action="store_true", default=MCConfig.bridge_correction)
    p_price.add_argument("--no-bridge", dest="bridge", action="store_false")
    return parser


# The flags that each command and model never read, and those that only the
# Monte Carlo oracle reads. One of them written on the command line is
# refused; a --params file key never is, since a file may serve both models.
_UNREAD = {
    ("diagnose", "harmonic"): ("--a", "--b"),
    ("diagnose", "barrier"): ("--w", "--route"),
    ("kernel", "harmonic"): ("--a", "--b"),
    ("kernel", "barrier"): ("--w",),
    ("price", "harmonic"): ("--s0", "--lower", "--upper"),
    ("price", "barrier"): ("--w", "--x"),
}
_MC_ONLY = ("--paths", "--steps", "--seed", "--bridge", "--no-bridge")


def _refuse_unread(args: argparse.Namespace, argv: List[str]) -> None:
    """Refuse a flag written in argv that args' command and model never read;
    the parsers take no abbreviation, so a written flag is the flag itself."""
    written = {token.partition("=")[0] for token in argv}
    rows = [(_UNREAD[args.command, args.model], "")]
    if args.command == "price" and args.oracle != "mc":
        rows.append((_MC_ONLY, " without --oracle mc"))
    for flags, unless in rows:
        for flag in flags:
            if flag in written:
                raise ValueError(f"{args.command} --model {args.model} does not read "
                                 f"{flag}{unless}")


def _file_flags(args: argparse.Namespace) -> List[str]:
    """The --params file as flags of args' command: --key=value, or a switch's
    flag for JSON true or false. Keys that name no option are skipped, and so
    are help, model, params and out."""
    with open(args.params, encoding="utf-8") as handle:
        cfg = json.load(handle)
    if not isinstance(cfg, dict):
        raise ValueError(f"--params file must hold a JSON object, got {type(cfg).__name__}")
    flags = []
    for action in _COMMANDS[args.command]._actions:
        if action.dest not in cfg or action.dest in ("help", "model", "params", "out"):
            continue
        value = cfg[action.dest]
        if action.nargs == 0 and isinstance(value, bool):
            if value is action.const:  # --bridge or --no-bridge, --flip-beta
                flags.append(action.option_strings[0])
        else:  # a switch refuses any value, as it does written
            text = value if isinstance(value, str) else json.dumps(value)
            flags.append(f"{action.option_strings[0]}={text}")
    return flags


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _model_params(args: argparse.Namespace):
    """HarmonicParams from --w, or BarrierParams from the log-barriers --a and
    --b, or for price from the barriers --lower and --upper in price units."""
    market = MarketParams(args.sigma, args.r)
    if args.model == "harmonic":
        return HarmonicParams(market, args.w)
    if args.command != "price":
        if args.a is None or args.b is None:
            raise ValueError("barrier model needs --a and --b (log-barriers)")
        return BarrierParams(market, args.a, args.b)
    if args.lower is None or args.upper is None:
        raise ValueError("barrier pricing needs --lower and --upper (price units)")
    if not 0.0 < args.lower < args.upper:
        raise ValueError(f"need 0 < lower < upper, got ({args.lower}, {args.upper})")
    return BarrierParams(market, math.log(args.lower), math.log(args.upper))


def _degenerate_note(beta: float) -> Optional[str]:
    if beta_is_degenerate(beta):
        return ("beta = 0 (sigma^2 = 2r): degenerate orthonormal regime, the two "
                "eigenfamilies coincide")
    return None


@np.errstate(all="ignore")  # a non-finite residual is refused by its CheckResult
def cmd_diagnose(args: argparse.Namespace) -> int:
    params = _model_params(args)
    if args.nmax < 0:
        raise ValueError(f"--nmax must be >= 0, got {args.nmax}")
    echo = {"command": "diagnose", "model": args.model, "sigma": params.sigma,
            "r": params.r, "beta": params.beta, "gamma": params.gamma,
            "nmax": args.nmax}
    if args.model == "harmonic":
        system = harmonic_system(params, route=args.route)
        echo.update({"w": params.w, "route": args.route, "delta": params.delta})
    else:
        system = barrier_system(params)
        echo.update({"a": params.a, "b": params.b})
    note = _degenerate_note(params.beta)
    if note:
        echo["notes"] = [note]
    report = run_all_checks(system, args.nmax, params_echo=echo)
    _emit(report.to_json() + "\n", args.out)
    return 0 if report.all_pass else 1


@np.errstate(all="ignore")  # a non-finite result is refused below
def cmd_kernel(args: argparse.Namespace) -> int:
    params = _model_params(args)
    xs = _parse_point_list(args.x)
    x_primes = _parse_point_list(args.x_prime)
    taus = _parse_point_list(args.tau)
    whichs = ("p1", "p2") if args.which == "both" else (args.which,)
    methods = ("spectral", "closed") if args.method == "both" else (args.method,)
    beta = -params.beta if args.flip_beta else None
    table = kernel_rows(params, xs, x_primes, taus, whichs, methods, beta)
    finite = np.isfinite(table.value) & np.isfinite(table.tail_estimate)
    if not finite.all():
        i = np.flatnonzero(~finite)[0]
        raise ValueError(
            f"the {table.which[i]} {table.method[i]} kernel at x = {table.x[i]}, "
            f"x_prime = {table.x_prime[i]}, tau = {table.tau[i]} is not finite: "
            f"value {table.value[i]}, tail {table.tail_estimate[i]}")
    _emit(_kernel_csv(table), args.out)
    return 0


@np.errstate(all="ignore")  # a non-finite result is refused below
def cmd_price(args: argparse.Namespace) -> int:
    params = _model_params(args)
    payoff = Payoff(args.payoff, args.strike)
    barriers = (args.lower, args.upper)
    if args.model == "barrier":
        # before its log, which 0 or a negative spot would fail
        if not args.lower < args.s0 < args.upper:
            raise ValueError(f"spot {args.s0} must start strictly inside {barriers}")
        x = math.log(args.s0)
    elif args.oracle == "mc":
        raise ValueError("the Monte Carlo oracle only covers the barrier "
                         "model; drop --oracle mc for harmonic pricing")
    else:
        x = args.x
    beta = -params.beta if args.flip_beta else None
    result = price_spectral(params, args.which, payoff, x, args.tau, beta)
    if not math.isfinite(result.value):
        raise ValueError(f"the spectral price is not finite: {result.value}")
    output = {"result": result.to_dict()}
    exit_code = 0
    if args.oracle == "mc":
        cfg = MCConfig(paths=args.paths, steps=args.steps, seed=args.seed,
                       bridge_correction=args.bridge)
        mc = price_mc_barrier(payoff, args.s0, barriers, params.sigma, params.r,
                              args.tau, cfg)
        output["oracle"] = mc.to_dict()
        if mc.stderr is None and result.value != mc.value:
            raise ValueError(f"the Monte Carlo value {mc.value} has no spread, so it gives "
                             f"no z-score against the spectral price {result.value}")
        z = 0.0 if mc.stderr is None else (result.value - mc.value) / mc.stderr
        output["z_score"] = z
        if abs(z) > Z_SCORE_LIMIT:
            exit_code = 1
    note = _degenerate_note(params.beta)
    if note:
        output["notes"] = [note]
    _emit(json.dumps(output, indent=2, allow_nan=False) + "\n", args.out)
    return exit_code


# Built once per process: parsing reads the parser and changes nothing in it,
# so every main() call in one process shares it.
_PARSER = build_parser()
# each command's parser (the choices of the subparsers action), whose options
# name the --params keys that the command reads
_COMMANDS = next(action.choices for action in _PARSER._actions if action.dest == "command")


def _parse(argv: List[str]) -> argparse.Namespace:
    """argv as _PARSER reads it, with one parse: a command's arguments go to
    that command's parser, and a leftover token is refused with _PARSER's
    usage, as _PARSER refuses it. Any other argv, which only asks for help or
    is refused, goes to _PARSER itself."""
    if not argv or argv[0] not in _COMMANDS:
        return _PARSER.parse_args(argv)
    args, extra = _COMMANDS[argv[0]].parse_known_args(argv[1:])
    if extra:
        _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    handlers = {"diagnose": cmd_diagnose, "kernel": cmd_kernel,
                "price": cmd_price}
    try:
        if args.params:  # parse again with the file's flags before the written ones
            args = _parse(argv[:1] + _file_flags(args) + argv[1:])
        _refuse_unread(args, argv)
        return handlers[args.command](args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
