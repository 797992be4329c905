"""Command-line front end: diagnostic reports, kernel tables, prices.

Exit codes: 0 on success (all checks pass / table written / price within
oracle bounds), 1 when a diagnostic check or oracle comparison fails, 2 for
invalid parameters, a kernel value, tail, price or check residual that is not
finite, a Monte Carlo value with no spread that differs from the spectral
price, or an adaptive quadrature that does not settle.

Every JSON report embeds the full parameter echo, so a `--params file.json`
holding the same keys reproduces the run; explicit flags win over file
values. CSV output is RFC-4180 with floats at 17 significant digits.
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
from .quadrature import QuadratureConvergenceError
from .systems import barrier_system, harmonic_system

KERNEL_COLUMNS = ("x", "x_prime", "tau", "which", "method", "value",
                  "tail_estimate", "rel_disagreement")
Z_SCORE_LIMIT = 3.0


def _csv_column(values: Optional[np.ndarray], rows: int) -> List[str]:
    """One CSV column as text: floats at 17 significant digits, None as empty."""
    if values is None:
        return [""] * rows
    if values.dtype.kind == "f":
        return list(map("%.17g".__mod__, values.tolist()))
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
        prog="pbk",
        description="Ladder-structure diagnostics, pricing kernels, and option "
                    "prices for the whole-line and double-barrier models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, barriers: bool = True) -> None:
        p.add_argument("--model", choices=("harmonic", "barrier"), required=True)
        p.add_argument("--sigma", type=float, default=None,
                       help="volatility per sqrt(year), default 0.2")
        p.add_argument("--r", type=float, default=None,
                       help="risk-free rate per year, default 0.05")
        p.add_argument("--w", type=float, default=None,
                       help="harmonic shift constant, default 0")
        if barriers:  # price takes its barriers in price units
            p.add_argument("--a", type=float, default=None,
                           help="lower log-barrier (barrier model)")
            p.add_argument("--b", type=float, default=None,
                           help="upper log-barrier (barrier model)")
        p.add_argument("--params", default=None, metavar="FILE",
                       help="JSON file with the same keys as the report echo; "
                            "explicit flags override it")
        p.add_argument("--out", default=None, metavar="FILE",
                       help="write output here instead of stdout")

    p_diag = sub.add_parser("diagnose", help="run the full verification suite")
    add_common(p_diag)
    p_diag.add_argument("--nmax", type=int, default=None,
                        help="highest family index exercised, default 20")
    p_diag.add_argument("--route", choices=("exact", "grid"), default=None,
                        help="harmonic operator realization, default exact")

    p_kern = sub.add_parser("kernel", help="tabulate kernel values as CSV")
    add_common(p_kern)
    p_kern.add_argument("--x", default=None,
                        help="comma list or lo:hi:count range of x points; one "
                             "that starts with '-' needs '=': --x=-0.5:0.5:40")
    p_kern.add_argument("--x-prime", default=None,
                        help="comma list or lo:hi:count range of x' points; one "
                             "that starts with '-' needs '=': --x-prime=-0.5,0.1")
    p_kern.add_argument("--tau", default=None, help="comma list of maturities")
    p_kern.add_argument("--which", choices=("p1", "p2", "both"), default=None)
    p_kern.add_argument("--method", choices=("spectral", "closed", "both"),
                        default=None)
    p_kern.add_argument("--flip-beta", action="store_true")

    p_price = sub.add_parser("price", help="price an option off the kernel")
    add_common(p_price, barriers=False)
    p_price.add_argument("--payoff", choices=("call", "put", "digital_call"),
                         default=None)
    p_price.add_argument("--strike", type=float, default=None)
    p_price.add_argument("--s0", type=float, default=None,
                         help="spot in price units (log taken internally)")
    p_price.add_argument("--x", type=float, default=None,
                         help="spot log-price (harmonic model)")
    p_price.add_argument("--lower", type=float, default=None,
                         help="lower barrier in price units")
    p_price.add_argument("--upper", type=float, default=None,
                         help="upper barrier in price units")
    p_price.add_argument("--tau", type=float, default=None)
    p_price.add_argument("--which", choices=("p1", "p2"), default=None)
    p_price.add_argument("--flip-beta", action="store_true")
    p_price.add_argument("--oracle", choices=("none", "mc"), default=None)
    p_price.add_argument("--paths", type=int, default=None)
    p_price.add_argument("--steps", type=int, default=None)
    p_price.add_argument("--seed", type=int, default=None)
    p_price.add_argument("--bridge", dest="bridge", action="store_true",
                         default=None)
    p_price.add_argument("--no-bridge", dest="bridge", action="store_false")
    return parser


def _load_file_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as handle:
        cfg = json.load(handle)
    if not isinstance(cfg, dict):
        raise ValueError(f"--params file must hold a JSON object, got {type(cfg).__name__}")
    return cfg


def _pick(args: argparse.Namespace, file_cfg: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in file_cfg:
        return file_cfg[key]
    return default


def _refuse_unread(args: argparse.Namespace, dests, unless: str = "") -> None:
    """Refuse an explicit flag among dests, which this command and model never read."""
    for dest in dests:
        value = getattr(args, dest)
        if value is not None:
            flag = "--no-bridge" if value is False else "--" + dest.replace("_", "-")
            raise ValueError(f"{args.command} --model {args.model} does not read {flag}{unless}")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _build_market(args, file_cfg) -> MarketParams:
    sigma = float(_pick(args, file_cfg, "sigma", 0.2))
    r = float(_pick(args, file_cfg, "r", 0.05))
    return MarketParams(sigma, r)


def _model_params(args, file_cfg, market: MarketParams, model: str, *harmonic_only):
    """HarmonicParams from --w, or BarrierParams from the log-barriers --a and
    --b; an explicit flag of the other model, or one of harmonic_only for the
    barrier model, is refused first."""
    _refuse_unread(args, ("a", "b") if model == "harmonic" else ("w", *harmonic_only))
    if model == "harmonic":
        return HarmonicParams(market, float(_pick(args, file_cfg, "w", 0.0)))
    a, b = _pick(args, file_cfg, "a"), _pick(args, file_cfg, "b")
    if a is None or b is None:
        raise ValueError("barrier model needs --a and --b (log-barriers)")
    return BarrierParams(market, float(a), float(b))


def _degenerate_note(beta: float) -> Optional[str]:
    if beta_is_degenerate(beta):
        return ("beta = 0 (sigma^2 = 2r): degenerate orthonormal regime, the two "
                "eigenfamilies coincide")
    return None


@np.errstate(all="ignore")  # a non-finite residual is refused by its CheckResult
def cmd_diagnose(args: argparse.Namespace) -> int:
    file_cfg = _load_file_config(args.params)
    market = _build_market(args, file_cfg)
    model = args.model
    nmax = int(_pick(args, file_cfg, "nmax", 20))
    if nmax < 0:
        raise ValueError(f"--nmax must be >= 0, got {nmax}")
    echo = {"command": "diagnose", "model": model, "sigma": market.sigma,
            "r": market.r, "beta": market.beta, "gamma": market.gamma,
            "nmax": nmax}
    params = _model_params(args, file_cfg, market, model, "route")
    if model == "harmonic":
        route = _pick(args, file_cfg, "route", "exact")
        system = harmonic_system(params, route=route)
        echo.update({"w": params.w, "route": route, "delta": params.delta})
    else:
        system = barrier_system(params)
        echo.update({"a": params.a, "b": params.b})
    note = _degenerate_note(market.beta)
    if note:
        echo["notes"] = [note]
    report = run_all_checks(system, nmax, params_echo=echo)
    _emit(report.to_json() + "\n", args.out)
    return 0 if report.all_pass else 1


@np.errstate(all="ignore")  # a non-finite result is refused below
def cmd_kernel(args: argparse.Namespace) -> int:
    file_cfg = _load_file_config(args.params)
    market = _build_market(args, file_cfg)
    model = args.model
    xs = _parse_point_list(str(_pick(args, file_cfg, "x", "0.0")))
    x_primes = _parse_point_list(str(_pick(args, file_cfg, "x_prime", "0.1")))
    taus = _parse_point_list(str(_pick(args, file_cfg, "tau", "0.5")))
    which = _pick(args, file_cfg, "which", "both")
    method = _pick(args, file_cfg, "method", "both")
    whichs = ("p1", "p2") if which == "both" else (which,)
    methods = ("spectral", "closed") if method == "both" else (method,)
    params = _model_params(args, file_cfg, market, model)
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
    file_cfg = _load_file_config(args.params)
    market = _build_market(args, file_cfg)
    model = args.model
    kind = _pick(args, file_cfg, "payoff", "call")
    strike = float(_pick(args, file_cfg, "strike", 100.0))
    tau = float(_pick(args, file_cfg, "tau", 0.5))
    which = _pick(args, file_cfg, "which", "p1")
    oracle = _pick(args, file_cfg, "oracle", "none")
    payoff = Payoff(kind, strike)
    _refuse_unread(args, ("s0", "lower", "upper") if model == "harmonic" else ("w", "x"))
    if oracle != "mc":
        _refuse_unread(args, ("paths", "steps", "seed", "bridge"), " without --oracle mc")
    if model == "barrier":
        s0 = float(_pick(args, file_cfg, "s0", 100.0))
        lower = _pick(args, file_cfg, "lower")
        upper = _pick(args, file_cfg, "upper")
        if lower is None or upper is None:
            raise ValueError("barrier pricing needs --lower and --upper "
                             "(price units)")
        lower, upper = float(lower), float(upper)
        if not 0.0 < lower < upper:
            raise ValueError(f"need 0 < lower < upper, got ({lower}, {upper})")
        params = BarrierParams(market, math.log(lower), math.log(upper))
        if not lower < s0 < upper:  # before its log, which 0 or a negative spot would fail
            raise ValueError(f"spot {s0} must start strictly inside {(lower, upper)}")
        x = math.log(s0)
    else:
        if oracle == "mc":
            raise ValueError("the Monte Carlo oracle only covers the barrier "
                             "model; drop --oracle mc for harmonic pricing")
        params = HarmonicParams(market, float(_pick(args, file_cfg, "w", 0.0)))
        x = float(_pick(args, file_cfg, "x", 0.0))
    beta = -params.beta if args.flip_beta else None
    result = price_spectral(params, which, payoff, x, tau, beta)
    if not math.isfinite(result.value):
        raise ValueError(f"the spectral price is not finite: {result.value}")
    output = {"result": result.to_dict()}
    exit_code = 0
    if oracle == "mc":
        cfg = MCConfig(
            paths=int(_pick(args, file_cfg, "paths", MCConfig.paths)),
            steps=int(_pick(args, file_cfg, "steps", MCConfig.steps)),
            seed=int(_pick(args, file_cfg, "seed", MCConfig.seed)),
            bridge_correction=bool(_pick(args, file_cfg, "bridge",
                                         MCConfig.bridge_correction)),
        )
        mc = price_mc_barrier(payoff, s0, (lower, upper), market.sigma,
                              market.r, tau, cfg)
        output["oracle"] = mc.to_dict()
        if mc.stderr is None and result.value != mc.value:
            raise ValueError(f"the Monte Carlo value {mc.value} has no spread, so it gives "
                             f"no z-score against the spectral price {result.value}")
        z = 0.0 if mc.stderr is None else (result.value - mc.value) / mc.stderr
        output["z_score"] = z
        if abs(z) > Z_SCORE_LIMIT:
            exit_code = 1
    note = _degenerate_note(market.beta)
    if note:
        output["notes"] = [note]
    _emit(json.dumps(output, indent=2, allow_nan=False) + "\n", args.out)
    return exit_code


# Built once per process: parsing reads the parser and changes nothing in it,
# so every main() call in one process shares it.
_PARSER = build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    handlers = {"diagnose": cmd_diagnose, "kernel": cmd_kernel,
                "price": cmd_price}
    try:
        return handlers[args.command](args)
    except (ValueError, TypeError, OSError, QuadratureConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
