"""Command-line front end.

Subcommands: ``sweep`` evaluates subcases over a grid and writes the CSV,
``compare`` checks the analytic and simulated rows of such a file against
each other, ``coverage`` prints SINR tail probabilities, ``placement``
dumps a coded-caching layout with its delivery schedule, and ``figure``
runs the pre-canned sweeps behind the standard plots.

Exit codes: 0 success, 1 usage or malformed input, 2 numerical failure,
3 analytic/simulation mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import typing
import warnings

from .caching import CodedCacheConfig, Mode, cc_delivery_schedule, cc_place, parse_subcase_token
from .distributions import coverage, dist_spec
from .model import PowerSplit, ReceiverClass, SinrKind, SystemParams, stream_powers
from .montecarlo import SimConfig, estimate_coverage
from .quadrature import QuadratureError
from .rates import asymptotic_report, slot
from .sweep import (
    METHOD_ANALYTIC,
    METHOD_ASYMPTOTIC,
    METHOD_MC,
    SWEEP_VARIABLES,
    SweepSpec,
    compare_csv,
    figure_presets,
    run_sweep,
    run_sweeps,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_MISMATCH = 3

SEED_ENV = "RSCACHE_SEED"

#: the keys --set and config files accept are the int and float fields of
#: these: key -> (its dataclass, the field's type)
_SETTINGS = (SystemParams, PowerSplit, SimConfig)
_KEYS = {
    name: (cls, kind)
    for cls in _SETTINGS
    for name, kind in typing.get_type_hints(cls).items()
    if kind in (int, float)
}

_METHOD_CHOICES = {
    "analytic": (METHOD_ANALYTIC,),
    "mc": (METHOD_MC,),
    "both": (METHOD_ANALYTIC, METHOD_MC),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse front end that reports usage problems via exit code 1."""

    def error(self, message):  # noqa: A003 - argparse hook
        raise _UsageError(f"{self.prog}: {message}")


def _read_config(path: str) -> dict[str, str]:
    """Flat ``key = value`` file; '#' starts a comment, blank lines skipped."""
    values: dict[str, str] = {}
    with open(path, encoding="ascii") as fh:
        for num, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{num}: expected 'key = value'")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in _KEYS:
                raise ValueError(f"{path}:{num}: unknown key {key!r}")
            values[key] = text
    return values


def _coerce(key: str, text: str) -> float | int:
    try:
        return _KEYS[key][1](text)
    except ValueError:
        raise ValueError(f"{key} needs a numeric value, got {text!r}") from None


def _resolve(args) -> dict[str, float | int]:
    """The settings given for one run, by key.

    Precedence, low to high: config file, the seed env var, --set, flags.
    Keys nobody gave are left out, so the caller's defaults stand.
    """
    values: dict[str, float | int] = {}
    if getattr(args, "config", None):
        for key, text in _read_config(args.config).items():
            values[key] = _coerce(key, text)
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        values["seed"] = _coerce("seed", env_seed)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ValueError(f"--set needs key=value, got {item!r}")
        key, text = (part.strip() for part in item.split("=", 1))
        if key not in _KEYS:
            raise ValueError(f"--set: unknown key {key!r}")
        values[key] = _coerce(key, text)
    for key in ("seed", "samples", "workers"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _settings(args) -> tuple[SystemParams, PowerSplit, SimConfig]:
    """Resolved parameters, power split and simulation config of one run."""
    values = _resolve(args)
    return tuple(
        cls(**{k: v for k, v in values.items() if _KEYS[k][0] is cls}) for cls in _SETTINGS
    )


def _cmd_sweep(args) -> int:
    params, split, sim = _settings(args)
    subcases = ()
    if args.subcases:
        subcases = tuple(s.strip() for s in args.subcases.split(",") if s.strip())
    spec = SweepSpec(
        variable=args.var,
        start=args.start,
        stop=args.stop,
        points=args.points,
        mode=Mode(args.mode),
        params=params,
        split=split,
        subcases=subcases,
        methods=_METHOD_CHOICES[args.methods] + ((METHOD_ASYMPTOTIC,) if args.asymptotic else ()),
        sim=sim,
        log_scale=args.log,
    )
    rows = run_sweep(spec, args.out)
    print(f"wrote {args.out}: {rows} data rows")
    return EXIT_OK


def _cmd_compare(args) -> int:
    summary = compare_csv(args.csv, args.samples)
    worst: dict[str, float] = {}
    for check in summary.checks:
        if check.z is not None:
            worst[check.quantity] = max(worst.get(check.quantity, 0.0), check.z)
    print("worst z per quantity:")
    for quantity in ("R_c", "R_e", "R_sum"):
        shown = f"{worst[quantity]:.3f}" if quantity in worst else "n/a"
        print(f"  {quantity:6s} {shown}")
    print("worst z per subcase:")
    for tag in sorted(summary.worst_by_subcase):
        print(f"  {tag:24s} {summary.worst_by_subcase[tag]:.3f}")
    for check in summary.failures:
        print(f"MISMATCH {check.key} {check.quantity}: {check.detail}")
    if summary.ok:
        print(f"PASS: {len(summary.checks)} checks within tolerance")
        return EXIT_OK
    print(f"FAIL: {len(summary.failures)} of {len(summary.checks)} checks out of tolerance")
    return EXIT_MISMATCH


def _cmd_coverage(args) -> int:
    params, split, sim = _settings(args)
    kind = SinrKind(args.kind)
    cls = ReceiverClass(args.cls)
    spec = dist_spec(kind, cls, stream_powers(params.P, split), params)
    thresholds = [float(x) for x in args.t.split(",") if x.strip()]
    if not thresholds:
        raise ValueError("--t needs at least one threshold")
    if any(math.isnan(t) for t in thresholds):
        raise ValueError("--t thresholds must be numbers, not nan")
    print(f"coverage of {kind.value} at the {cls.value} receiver"
          f" (beta={split.beta:g}, rho={split.rho:g})")
    if args.mc:
        print(f"{'t':>12} {'analytic':>14} {'monte-carlo':>14} {'stderr':>12} {'z':>8}")
    else:
        print(f"{'t':>12} {'analytic':>14}")
    for t in thresholds:
        a = coverage(spec, t, params)
        if not args.mc:
            print(f"{t:>12g} {a:>14.9g}")
            continue
        p, se = estimate_coverage(kind, cls, t, params, split, sim)
        z = abs(a - p) / se if se > 0.0 else 0.0
        print(f"{t:>12g} {a:>14.9g} {p:>14.9g} {se:>12.3g} {z:>8.2f}")
    return EXIT_OK


def _compact(group: tuple[int, ...], K: int) -> str:
    sep = "" if K <= 9 else ","
    return sep.join(str(i) for i in group)


def _cmd_placement(args) -> int:
    cfg = CodedCacheConfig(K=args.K, M=args.M, N=args.N)
    layout = cc_place(cfg)
    print(f"coded caching over K={cfg.K} receivers, cache M={cfg.M} of N={cfg.N} files")
    print(f"replication degree t={cfg.t}; every file splits into "
          f"{cfg.subfiles_per_file} subfiles, one per receiver {cfg.t}-set")
    for receiver in range(1, cfg.K + 1):
        groups = [s.group for s in layout.cached(1, receiver)]
        shown = " ".join(_compact(g, cfg.K) for g in groups)
        print(f"receiver {receiver} caches subsets: {shown}")
    if args.demands:
        demands = [int(x) for x in args.demands.split(",")]
    else:
        demands = [(i % cfg.N) + 1 for i in range(cfg.K)]
    schedule = cc_delivery_schedule(cfg, demands)
    print("demands: " + " ".join(str(d) for d in schedule.demands))
    print(f"xor schedule ({len(schedule.transmissions)} multicasts,"
          f" {schedule.subfile_size} of a file each):")
    for tx in schedule.transmissions:
        parts = " ^ ".join(
            f"file{p.f}[{_compact(p.group, cfg.K)}]" for p in tx.parts
        )
        print(f"  group {_compact(tx.group, cfg.K)}: {parts}")
    load = schedule.per_receiver_load
    print(f"per-receiver load: {'%.6g' % float(load)} ({load} of a file)")
    return EXIT_OK


def _cmd_figure(args) -> int:
    entries = figure_presets()[args.name]
    # the preset's simulation config takes the place of the defaults
    sim_values = _resolve(args)
    os.makedirs(args.out_dir, exist_ok=True)
    pairs = []
    for fname, spec in entries:
        spec = dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, **sim_values))
        if args.methods:
            # the option picks the compared methods; a preset's asymptotic rows stay
            kept = tuple(m for m in spec.methods if m == METHOD_ASYMPTOTIC)
            spec = dataclasses.replace(spec, methods=_METHOD_CHOICES[args.methods] + kept)
        pairs.append((spec, os.path.join(args.out_dir, fname)))
    # the preset's files share one draw per point
    for (spec, path), rows in zip(pairs, run_sweeps(pairs)):
        print(f"wrote {path}: {rows} data rows")
        if METHOD_ASYMPTOTIC in spec.methods:
            for token in spec.subcases:
                subcase = parse_subcase_token(spec.mode, token)
                limit = asymptotic_report(slot(subcase, spec.params, spec.split)).r_sum
                label = "unbounded" if math.isinf(limit) else f"bounded at {limit:.9g}"
                print(f"  asymptotic sum rate for {token}: {label}")
    return EXIT_OK


def _add_settings_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value parameter file")
    sub.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override one parameter (repeatable); keys mirror the config file",
    )
    _add_sim_flags(sub)


def _add_sim_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, help="simulation seed")
    sub.add_argument("--samples", type=int, help="simulated draws per estimate")
    sub.add_argument("--workers", type=int, help="simulation worker threads")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rscache",
        description="Rate-splitting downlink analysis with cache-aided receivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate subcases over a parameter grid")
    sweep.add_argument("--var", required=True, choices=SWEEP_VARIABLES)
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--points", type=int, required=True)
    sweep.add_argument("--mode", required=True, choices=[m.value for m in Mode])
    sweep.add_argument(
        "--subcases",
        help="comma-separated subcase tokens; defaults to the mode's full roster",
    )
    sweep.add_argument("--methods", default="analytic", choices=sorted(_METHOD_CHOICES))
    sweep.add_argument("--log", action="store_true", help="geometric grid spacing")
    sweep.add_argument(
        "--asymptotic", action="store_true", help="append high-power limit rows"
    )
    sweep.add_argument("--out", default="sweep.csv", help="output CSV path")
    _add_settings_flags(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    compare = sub.add_parser(
        "compare", help="check analytic vs monte-carlo rows of a sweep CSV"
    )
    compare.add_argument("csv")
    compare.add_argument(
        "--samples", type=int, default=SimConfig().samples,
        help="draw count the sweep simulated with",
    )
    compare.set_defaults(handler=_cmd_compare)

    cov = sub.add_parser("coverage", help="tail probabilities of one SINR kind")
    cov.add_argument("--kind", required=True, choices=[k.value for k in SinrKind])
    cov.add_argument(
        "--cls", default=ReceiverClass.CENTER.value,
        choices=[c.value for c in ReceiverClass],
    )
    cov.add_argument("--t", default="0.1,0.5,1,2,5", help="comma-separated thresholds")
    cov.add_argument(
        "--mc", action=argparse.BooleanOptionalAction, default=True,
        help="also simulate and report the z-score",
    )
    _add_settings_flags(cov)
    cov.set_defaults(handler=_cmd_coverage)

    place = sub.add_parser("placement", help="coded-caching layout and XOR schedule")
    place.add_argument("K", type=int)
    place.add_argument("M", type=int)
    place.add_argument("N", type=int)
    place.add_argument(
        "--demands", help="comma-separated catalog ranks, one per receiver"
    )
    place.set_defaults(handler=_cmd_placement)

    fig = sub.add_parser("figure", help="run a pre-canned sweep preset")
    fig.add_argument("name", choices=sorted(figure_presets()))
    fig.add_argument("--out-dir", default=".", help="directory for the CSV files")
    fig.add_argument(
        "--methods", choices=sorted(_METHOD_CHOICES),
        help="override the preset's methods",
    )
    _add_sim_flags(fig)
    fig.set_defaults(handler=_cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return args.handler(args)
        except QuadratureError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        finally:
            # a documented convention (the 0/0 SINR bound) warns once per
            # call site; the user gets each distinct message once, plainly
            for note in dict.fromkeys(str(w.message) for w in caught):
                print(f"note: {note}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
