"""Command-line surface: reproducible coefficient tables, time series, bound
curves and the acceptance suite.

Every run is fully determined by its flags (there is no randomness anywhere in
the package), and every output file starts with a comment echoing the
resolved configuration, so a file is always traceable to the run that made
it.  Coefficient files print exact numerator/denominator strings unless
``--decimal`` asks for floats.  A plain ``key = value`` config file can stand
in for flags (flags win on conflict).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bounds
from .bounds import EnvelopeDepthError
from .dynamics import (
    DimensionBudgetError,
    _check_dense_budget,
    evolve,
    g2,
    taylor_oracle,
    universal_window,
)
from .series import (
    boundary_deficits,
    coefficient_records,
    correlation,
    correlation_coefficients,
    density,
    density_coefficients,
    eval_even_series,
    records_to_csv,
    universality_threshold,
)
from .words import AdOrderBudgetError, ModelSpec, ring

__all__ = ["main"]


def _model_from(args) -> ModelSpec:
    """The lattice named by the flags; `ModelSpec` refuses what it cannot be."""
    if args.L is None and args.topology in ("ring", "line"):
        raise ValueError(f"--L is required for topology {args.topology!r}")
    return ModelSpec(args.topology, args.L, args.lambda_b)


def _config_echo(args, skip=("func", "config", "output")) -> list[str]:
    pairs = []
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None or callable(value):
            continue
        pairs.append(f"{key} = {value}")
    return pairs


def _write(args, lines: list[str] | str, header: list[str]) -> None:
    if isinstance(lines, list):
        body = "\n".join(lines)
    else:
        body = lines
    text = "".join(f"# {h}\n" for h in header) + body + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _apply_config_file(argv: list[str]) -> list[str]:
    """Prepend options from a ``key = value`` config file, letting explicit
    flags override them (argparse keeps the last occurrence)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise ValueError("--config needs a path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    injected = []
    with open(path) as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            key, _, value = raw.partition("=")
            key = key.strip().replace("_", "-")
            value = value.strip()
            if value.lower() in ("true", "yes"):
                injected.append(f"--{key}")
            else:
                injected.extend([f"--{key}", value])
    # subcommand first, then config-injected options, then explicit flags
    return rest[:1] + injected + rest[1:]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _records_payload(args, records: list[dict], header: list[str]) -> None:
    if args.format == "json":
        payload = {"config": _config_echo(args), "records": records}
        _write(args, json.dumps(payload, indent=2), [])
    else:
        _write(args, records_to_csv(records, decimal=args.decimal), header)


def cmd_coeffs(args) -> int:
    model = _model_from(args)
    if args.observable == "density":
        sc = density_coefficients(model, args.jmax)
    else:
        if args.d is None:
            raise ValueError("--d is required for the pair-counter observable")
        sc = correlation_coefficients(model, args.d, args.jmax)
    records = coefficient_records(sc)
    if args.with_oracle:
        orc = taylor_oracle(model, sc.observable, args.jmax)
        sym = sc.even_values()
        if sym != orc.coefficients:
            sys.stderr.write(
                "oracle mismatch: symbolic "
                f"{[str(x) for x in sym]} vs matrix {[str(x) for x in orc.coefficients]}\n"
            )
            return 2
        for r in records:
            r["oracle_checked"] = r["order"] % 2 == 0 and r["order"] > 0
    if args.emit_q:
        if model.topology != "line":
            raise ValueError("boundary deficits are an open-chain quantity")
        qs = boundary_deficits(args.jmax, L_probe=max(args.L, 12), blockade_range=args.lambda_b)
        for j, q in enumerate(qs, 1):
            records.append(
                {
                    "observable": "boundary-deficit",
                    "topology": "line",
                    "L": None,
                    "lambda_b": args.lambda_b,
                    "order": j,
                    "numerator": q.numerator if q is not None else 0,
                    "denominator": q.denominator if q is not None else 0,
                    "universal": q is not None,
                }
            )
    _records_payload(args, records, _config_echo(args))
    return 0


def cmd_simulate(args) -> int:
    times = _time_grid(args)
    if args.jmax is not None and not args.overlay_universal:
        raise ValueError("--jmax is read only by --overlay-universal")
    if args.window_vs is not None:
        # the window is one CSV row comparing densities; refuse what it would ignore
        if args.format == "json":
            raise ValueError("--window-vs prints a CSV table, not --format json")
        if args.observable != "density":
            raise ValueError(f"--window-vs compares densities, not --observable {args.observable}")
        if args.overlay_universal:
            raise ValueError("--window-vs takes no --overlay-universal")
        model_a = _model_from(args)
        args_b = argparse.Namespace(**vars(args))
        args_b.L = args.window_vs
        model_b = _model_from(args_b)
        t_star = universal_window(model_a, model_b, times, args.epsilon)
        lines = [
            "quantity,value",
            f"first_divergence_time,{t_star if t_star is not None else 'none'}",
        ]
        _write(args, lines, _config_echo(args))
        return 0

    models = []
    for topo in args.topology.split(","):
        sub = argparse.Namespace(**vars(args))
        sub.topology = topo.strip()
        models.append((sub.topology, _model_from(sub)))
    if args.overlay_universal:  # refused, if at all, before any evolution or oracle
        if args.observable != "density":
            raise ValueError(f"--overlay-universal needs --observable density, not {args.observable}")
        lam, jmax = args.lambda_b, args.jmax
        if jmax is None:
            jmax = universality_threshold(ring(args.L, lam), density())
        if jmax < 1:
            raise ValueError("--jmax must be at least 1")
        for _, model in models:  # each lattice's dense budget, from the closed form
            _check_dense_budget(model)
        # the smallest ring certified size-free through t^(2 jmax) carries
        # the infinite chain's coefficients (`universality_threshold`)
        overlay = taylor_oracle(ring(lam * jmax + 1, lam), density(), jmax).coefficients

    columns: list[tuple[str, list[float]]] = []
    for topo, model in models:
        if args.observable == "density":
            res = evolve(model, density(), times)
        elif args.observable == "correlation":
            res = evolve(model, correlation(args.d), times)
        else:  # g2
            # t = 0, where the default grid starts, is dropped; g2 refuses
            # any other time that is not positive
            res = g2(model, args.d, [t for t in times if t != 0])
            times = res.times
        columns.append((f"{args.observable}_{topo}", res.values))
    if args.overlay_universal:
        columns.append((f"universal_{jmax}", [eval_even_series(overlay, t) for t in times]))

    if args.format == "json":
        payload = {
            "config": _config_echo(args),
            "t": list(times),
            "columns": {name: vals for name, vals in columns},
        }
        _write(args, json.dumps(payload, indent=2), [])
    else:
        header = ["t"] + [name for name, _ in columns]
        lines = [",".join(header)]
        for i, t in enumerate(times):
            lines.append(",".join([repr(float(t))] + [repr(vals[i]) for _, vals in columns]))
        _write(args, lines, _config_echo(args))
    return 0


def _time_grid(args) -> list[float]:
    n = args.t_steps
    if n < 1:
        raise ValueError("--t-steps must be at least 1")
    start, stop = args.t_start, args.t_stop
    for flag, value in (("--t-start", start), ("--t-stop", stop)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if n == 1:
        return [start]
    step = (stop - start) / (n - 1)
    return [round(start + i * step, 12) for i in range(n)]


def cmd_bounds(args) -> int:
    if args.table == "kappa":
        lines = ["a,tau,omega,log_kappa"]
        for a in range(1, args.amax + 1):
            kv = bounds.kappa(float(a))
            lines.append(f"{a},{kv.tau!r},{kv.omega!r},{kv.log_kappa!r}")
    elif args.table == "bj":
        lines = ["j,log_bj"]
        for j in range(1, args.jmax + 1):
            lines.append(
                f"{j},{bounds.coefficient_bound(j, args.lambda_b, args.ell, args.cls)!r}"
            )
    elif args.table == "envelope":
        if args.L is None:
            raise ValueError("--L is required for the envelope table")
        # E overflows floats long before the (finite) bound stops making
        # sense, so the log column always carries the full information
        lines = ["t,E,log_E"]
        for t in _time_grid(args):
            log_e = bounds.log_error_envelope(args.L, args.lambda_b, args.ell, t, args.cls)
            e = repr(math.exp(log_e)) if log_e < 700 else "over-range"
            lines.append(f"{t!r},{e},{log_e!r}")
    else:  # ratio
        lines = ["L,ratio_bound"]
        for L in range(args.Lmin, args.Lmax + 1):
            lines.append(
                f"{L},{bounds.convergence_ratio(L, args.lambda_b, args.ell, args.t)!r}"
            )
    _write(args, lines, _config_echo(args))
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(quick=args.quick)
    failed = 0
    for r in results:
        line_out = f"{r.criterion} {r.status():5s} {r.name}"
        if r.details:
            line_out += "  | " + "; ".join(r.details)
        print(line_out)
        if r.skipped:
            continue
        if r.expected_failure:
            # a documented-impossible check: red is the expected, honest state
            if r.passed:
                failed += 1  # unexpectedly green means something changed
            continue
        if not r.passed:
            failed += 1
    total = sum(1 for r in results if not r.skipped)
    print(f"\n{total - failed}/{total} checks in the expected state")
    return 1 if failed else 0


# refused requests and file errors: reported in one line with exit status 2, not a traceback
_REFUSALS = (ValueError, DimensionBudgetError, AdOrderBudgetError, EnvelopeDepthError, OSError)


def main(argv=None) -> int:
    try:
        return _run(list(sys.argv[1:] if argv is None else argv))
    except _REFUSALS as exc:
        sys.stderr.write(f"blockade: error: {exc}\n")
        return 2


def _run(argv: list[str]) -> int:
    argv = _apply_config_file(argv)

    parser = argparse.ArgumentParser(
        prog="blockade",
        description="Exact short-time dynamics of perfectly blockaded chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads, so argparse rejects the rest
    def add_common(p, lattice_output=True):
        if lattice_output:
            p.add_argument("--topology", default="ring", help="ring, line or infinite (comma list for simulate)")
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--L", type=int, default=None, help="number of sites")
        p.add_argument("--lambda", dest="lambda_b", type=int, default=1, help="blockade range in lattice spacings")
        p.add_argument("--output", default=None, help="output path (stdout if omitted)")

    p = sub.add_parser("coeffs", help="exact Taylor coefficient tables")
    add_common(p)
    p.add_argument("--decimal", action="store_true", help="print decimal values instead of exact fractions")
    p.add_argument("--observable", choices=("density", "correlation"), default="density")
    p.add_argument("--d", type=int, default=None, help="pair-counter distance")
    p.add_argument("--jmax", type=int, default=5)
    p.add_argument("--with-oracle", action="store_true", help="cross-check against the integer matrix oracle (finite lattices)")
    p.add_argument("--emit-q", action="store_true", help="append open-chain boundary deficits")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("simulate", help="exact time evolution data")
    add_common(p)
    p.add_argument("--observable", choices=("density", "correlation", "g2"), default="density")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-stop", type=float, default=2.0)
    p.add_argument("--t-steps", type=int, default=101)
    p.add_argument("--jmax", type=int, default=None, help="overlay truncation order (default: the certified-universal threshold)")
    p.add_argument("--overlay-universal", action="store_true", help="add a column with the truncated size-free series")
    p.add_argument("--window-vs", type=int, default=None, help="report the first time the density differs from this lattice size")
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bounds", help="bound tables and certified envelopes")
    add_common(p, lattice_output=False)
    p.add_argument("--table", choices=("kappa", "bj", "envelope", "ratio"), default="kappa")
    p.add_argument("--amax", type=int, default=100)
    p.add_argument("--jmax", type=int, default=20)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--cls", choices=("density", "word"), default="density")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-stop", type=float, default=2.0)
    p.add_argument("--t-steps", type=int, default=41)
    p.add_argument("--Lmin", type=int, default=10)
    p.add_argument("--Lmax", type=int, default=40)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true", help="skip the large-lattice dense evolution")
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
