"""Command-line interface.

Subcommands: estimate, simulate, uniformity-test, rgg-triangles,
audit-smoothness, audit-noise, fixture-adversarial.  A config file of
``key = value`` lines (keys match flag names, dashes or underscores) supplies
defaults; explicit flags win.  Exit codes: 0 success, 1 usage error, 2 audit
failure, 3 estimator bottom.

Every run prints the privacy-ledger summary to stderr; CSV goes to --out or
stdout.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .. import applications as apps
from ..dp import scratch_budget
from ..errors import AuditFailure, PrivustatError
from ..rng import as_generator
from ..ustat import collision_kernel, identity_kernel, mean_kernel
from . import audits
from .experiments import DistributionSpec, ExperimentSpec, rows_to_csv, run_experiment, run_single

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT = 2
EXIT_BOTTOM = 3


class CliError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _coerce(text: str):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def load_config(path: str) -> dict:
    """key = value lines; '#' starts a comment; keys may use - or _."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, value = line.split("=", 1)
            elif ":" in line:
                key, value = line.split(":", 1)
            else:
                raise CliError(f"bad config line: {raw.rstrip()}")
            out[key.strip().replace("-", "_")] = _coerce(value.strip())
    return out


def pop_config(argv: list[str]) -> tuple[dict, list[str]]:
    if "--config" not in argv:
        return {}, argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise CliError("--config needs a path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    return load_config(path), rest


def build_parser(defaults: dict) -> Parser:
    parser = Parser(prog="privustat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=defaults.get("seed", 0))
        p.add_argument("--eps", type=float, default=defaults.get("eps", 1.0))
        p.add_argument("--alpha", type=float, default=defaults.get("alpha"))
        p.add_argument("--out", default=defaults.get("out"))

    est = sub.add_parser("estimate", help="one private estimate from a data file or simulation")
    add_common(est)
    est.add_argument("--method", choices=("naive", "all", "subsampled", "hajek"),
                     default=defaults.get("method", "all"))
    est.add_argument("--kernel", choices=("identity", "pair_mean", "collision"),
                     default=defaults.get("kernel", "identity"))
    est.add_argument("--data", default=defaults.get("data"))
    est.add_argument("--simulate", default=defaults.get("simulate"),
                     help="dist spec like 'gaussian,n=500,mu=1' or 'uniform,n=1000,m=50'")
    est.add_argument("--R", type=float, default=defaults.get("r", 1.0), dest="r")
    est.add_argument("--tau", type=float, default=defaults.get("tau", 0.25))
    est.add_argument("--M", type=int, default=defaults.get("m_subsets"), dest="m_subsets")
    est.add_argument("--xi", default=defaults.get("xi", "auto-degenerate"),
                     help="auto-subgaussian | auto-degenerate | <value>")
    est.add_argument("--C", type=float, default=defaults.get("c", 1.0), dest="c")
    est.add_argument("--m", type=int, default=defaults.get("m"),
                     help="atom count for categorical data (default: the simulate spec's m, else 10)")

    sim = sub.add_parser("simulate", help="grid experiment, CSV output")
    add_common(sim)
    sim.add_argument("--method", choices=("naive", "all", "subsampled", "hajek"),
                     default=defaults.get("method", "all"))
    sim.add_argument("--kernel", default=defaults.get("kernel", "collision"))
    sim.add_argument("--dist", default=defaults.get("dist", "uniform"))
    sim.add_argument("--m", type=int, default=defaults.get("m", 10))
    sim.add_argument("--amplitude", type=float, default=defaults.get("amplitude", 0.5))
    sim.add_argument("--mu", type=float, default=defaults.get("mu", 0.0))
    sim.add_argument("--sigma", type=float, default=defaults.get("sigma", 1.0))
    sim.add_argument("--n-grid", default=str(defaults.get("n_grid", "100")))
    sim.add_argument("--eps-grid", default=str(defaults.get("eps_grid", "1.0")))
    sim.add_argument("--M-grid", default=str(defaults.get("m_grid", "")), dest="m_grid")
    sim.add_argument("--trials", type=int, default=defaults.get("trials", 10))
    sim.add_argument("--R", type=float, default=defaults.get("r", 1.0), dest="r")
    sim.add_argument("--tau", type=float, default=defaults.get("tau", 0.25))
    sim.add_argument("--xi", default=defaults.get("xi", "auto-degenerate"))
    sim.add_argument("--C", type=float, default=defaults.get("c", 1.0), dest="c")
    sim.add_argument("--timing", action="store_true", default=bool(defaults.get("timing", False)))

    uni = sub.add_parser("uniformity-test", help="private collision-based uniformity test")
    add_common(uni)
    uni.add_argument("--m", type=int, required="m" not in defaults, default=defaults.get("m"))
    uni.add_argument("--delta", type=float, default=defaults.get("delta", 0.5))
    uni.add_argument("--data", default=defaults.get("data"))
    uni.add_argument("--simulate", default=defaults.get("simulate"),
                     help="'n=2000,kind=uniform' or 'n=2000,kind=split,a=0.5'")

    rgg = sub.add_parser("rgg-triangles", help="private triangle density of a graph")
    add_common(rgg)
    rgg.add_argument("--graph", default=defaults.get("graph"))
    rgg.add_argument("--simulate", default=defaults.get("simulate"), help="'n=300,r=0.3'")

    smo = sub.add_parser("audit-smoothness", help="exhaustive smooth-bound audit")
    add_common(smo)
    smo.add_argument("--n", type=int, default=defaults.get("n", 5))
    smo.add_argument("--xi", type=float, default=defaults.get("xi", 0.0))
    smo.add_argument("--C", type=float, default=defaults.get("c", 1.0), dest="c")
    smo.add_argument("--fault-scale", type=float, default=defaults.get("fault_scale", 1.0))

    noi = sub.add_parser("audit-noise", help="sampler goodness of fit")
    add_common(noi)
    noi.add_argument("--law", choices=("laplace", "quartic"), default=defaults.get("law", "laplace"))
    noi.add_argument("--draws", type=int, default=defaults.get("draws", 10**6))

    fix = sub.add_parser("fixture-adversarial", help="deterministic worst-case dataset pair")
    add_common(fix)
    fix.add_argument("--n", type=int, default=defaults.get("n", 60))
    fix.add_argument("--k", type=int, default=defaults.get("k", 2))

    return parser


def parse_kv(spec: str) -> dict:
    out = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            key, value = part.split("=", 1)
            out[key.strip()] = _coerce(value.strip())
        else:
            out.setdefault("kind", part)
    return out


def emit(text: str, out_path: Optional[str]):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_estimate(args) -> int:
    rng = as_generator(args.seed)
    budget = scratch_budget()
    if (args.data is None) == (args.simulate is None):
        raise CliError("provide exactly one of --data / --simulate")
    m = args.m
    if args.simulate:
        kv = parse_kv(args.simulate)
        n = int(kv.get("n", 100))
        dist = DistributionSpec(kv.get("kind", "gaussian"),
                                {k: v for k, v in kv.items() if k not in ("kind", "n")})
        if "m" in kv:
            if m is not None and m != kv["m"]:
                raise CliError(f"--m {m} disagrees with m={kv['m']} in --simulate")
            m = kv["m"]
        data = dist.sample(rng, n)
    elif args.kernel == "collision":
        data = apps.read_categories(args.data)
    else:
        data = apps.read_reals(args.data)

    if args.kernel == "collision":
        kernel = collision_kernel()
    elif args.kernel == "pair_mean":
        kernel = mean_kernel(2, tau=args.tau)
    else:
        kernel = identity_kernel()

    spec = ExperimentSpec(
        method=args.method,
        kernel=args.kernel,
        dist=DistributionSpec("data", {"m": 10 if m is None else m}),  # the collision path reads m
        n_grid=[data.n],
        eps_grid=[args.eps],
        trials=1,
        seed=args.seed,
        r_bound=args.r,
        tau=args.tau,
        c_range=args.c,
        xi=str(args.xi),
    )
    cell = (data.n, args.eps, args.alpha, args.m_subsets)
    report = run_single(spec, kernel, data, cell, rng, budget)
    print(budget.summary(), file=sys.stderr)
    if report.is_bottom:
        print(f"bottom: {report.bottom_reason}", file=sys.stderr)
        return EXIT_BOTTOM
    lines = [f"estimate {report.estimate!r}"]
    if report.radius is not None:
        lines.append(f"radius {report.radius!r}")
    emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    dist_params = {"m": args.m, "amplitude": args.amplitude, "mu": args.mu, "sigma": args.sigma}
    n_grid = [int(tok) for tok in str(args.n_grid).split(",") if tok]
    eps_grid = [float(tok) for tok in str(args.eps_grid).split(",") if tok]
    m_grid = [int(tok) for tok in str(args.m_grid).split(",") if tok] or [None]
    spec = ExperimentSpec(
        method=args.method,
        kernel=args.kernel,
        dist=DistributionSpec(args.dist, dist_params),
        n_grid=n_grid,
        eps_grid=eps_grid,
        trials=args.trials,
        seed=args.seed,
        alpha_grid=[args.alpha],
        m_grid=m_grid,
        r_bound=args.r,
        tau=args.tau,
        c_range=args.c,
        xi=str(args.xi),
    )
    rows = list(run_experiment(spec))
    text = rows_to_csv(rows, include_timing=args.timing)
    print(
        f"privacy ledger: {len(rows)} trial ledgers checked against their cell's eps "
        f"(grid {', '.join(map(repr, eps_grid))}); a mismatch is a LedgerMismatch row",
        file=sys.stderr,
    )
    emit(text, args.out)
    return EXIT_OK


def cmd_uniformity(args) -> int:
    rng = as_generator(args.seed)
    budget = scratch_budget()
    if (args.data is None) == (args.simulate is None):
        raise CliError("provide exactly one of --data / --simulate")
    if args.simulate:
        kv = parse_kv(args.simulate)
        n = int(kv.get("n", 1000))
        kind = kv.get("kind", "uniform")
        if kind == "uniform":
            dist = apps.PerturbedUniform.uniform(args.m)
        elif kind == "split":
            dist = apps.PerturbedUniform.half_split(args.m, float(kv.get("a", args.delta)))
        else:
            raise CliError(f"unknown simulation kind {kind!r}")
        data = apps.sample_multinomial(dist, n, rng)
    else:
        data = apps.read_categories(args.data)
    if args.alpha is None:
        decision = apps.uniformity_test(data, args.m, args.delta, args.eps, rng, budget)
    else:
        decision = apps.boosted_uniformity_test(
            data, args.m, args.delta, args.eps, args.alpha, rng, budget
        )
    print(budget.summary(), file=sys.stderr)
    verdict = "reject" if decision.reject else "accept"
    emit(
        f"decision {verdict}\nstatistic {decision.statistic!r}\nthreshold {decision.threshold!r}\n",
        args.out,
    )
    return EXIT_OK


def cmd_rgg(args) -> int:
    rng = as_generator(args.seed)
    budget = scratch_budget()
    if (args.graph is None) == (args.simulate is None):
        raise CliError("provide exactly one of --graph / --simulate")
    if args.simulate:
        kv = parse_kv(args.simulate)
        graph = apps.sample_rgg(int(kv.get("n", 300)), float(kv.get("r", 0.3)), rng)
    else:
        graph = apps.read_edge_list(args.graph)
    if args.alpha is None:
        report = apps.private_triangle_density(graph, args.eps, rng, budget)
    else:
        report = apps.boosted_triangle_density(graph, args.eps, args.alpha, rng, budget)
    print(budget.summary(), file=sys.stderr)
    if report.is_bottom:
        print(f"bottom: {report.bottom_reason}", file=sys.stderr)
        return EXIT_BOTTOM
    emit(f"estimate {report.estimate!r}\n", args.out)
    return EXIT_OK


def cmd_audit_smoothness(args) -> int:
    print("privacy ledger: audits spend no budget", file=sys.stderr)
    try:
        report = audits.smoothness_audit(
            n=args.n, eps=args.eps, xi=args.xi, c_range=args.c, fault_scale=args.fault_scale
        )
    except AuditFailure as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    emit(
        "smoothness audit ok\n"
        f"datasets {report.datasets}\npairs {report.pairs_checked}\n"
        f"worst dominance margin {report.worst_dominance_margin!r}\n"
        f"worst smoothness margin {report.worst_smoothness_margin!r}\n",
        args.out,
    )
    return EXIT_OK


def cmd_audit_noise(args) -> int:
    print("privacy ledger: audits spend no budget", file=sys.stderr)
    report = audits.noise_gof(args.law, args.draws, args.seed)
    text = (
        f"law {report.law}\ndraws {report.draws}\nks_gap {report.ks_gap!r}\n"
        f"threshold {report.threshold!r}\nok {report.ok}\n"
    )
    emit(text, args.out)
    if not report.ok:
        print("audit failure: sampler does not match its reference CDF", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def cmd_fixture(args) -> int:
    print("privacy ledger: audits spend no budget", file=sys.stderr)
    fix = audits.adversarial_fixture(args.n, args.k, args.eps)
    margins = audits.fixture_projection_margins(fix)
    ok = (
        margins["direct_gap"] >= fix.gap_lower_bound
        and margins["base"]["max_abs_projection_deviation"] <= fix.xi
        and margins["shifted"]["max_abs_projection_deviation"] <= fix.xi
    )
    emit(
        f"ones {fix.ones}\nflips {fix.flips}\nxi {fix.xi!r}\n"
        f"gap {margins['direct_gap']!r}\ngap_lower_bound {fix.gap_lower_bound!r}\n"
        f"ok {ok}\n",
        args.out,
    )
    return EXIT_OK if ok else EXIT_AUDIT


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config, argv = pop_config(argv)
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser(config)
    args = parser.parse_args(argv)
    handlers = {
        "estimate": cmd_estimate,
        "simulate": cmd_simulate,
        "uniformity-test": cmd_uniformity,
        "rgg-triangles": cmd_rgg,
        "audit-smoothness": cmd_audit_smoothness,
        "audit-noise": cmd_audit_noise,
        "fixture-adversarial": cmd_fixture,
    }
    try:
        return handlers[args.command](args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrivustatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
