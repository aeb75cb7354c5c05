"""Command-line interface.

Each subcommand takes only the flags its handler reads; every one takes --out:

  estimate             --seed --eps --alpha --method --kernel --data --simulate
                       --R --tau --M --xi --C
  simulate             --seed --alpha --method --kernel --dist --m --amplitude
                       --mu --sigma --n-grid --eps-grid --M-grid --trials --R
                       --tau --xi --C --timing
  uniformity-test      --seed --eps --alpha --m --delta --data --simulate
  rgg-triangles        --seed --eps --alpha --graph --simulate
  audit-smoothness     --eps --n --xi
  audit-noise          --seed --law --draws
  fixture-adversarial  --eps --n --k

``--config FILE`` or ``--config=FILE`` reads ``key = value`` lines whose
keys are these flag names without the dashes (``M-grid`` or ``M_grid``,
``R``); ``true`` sets a switch and ``false`` leaves it off.  They are
parsed as flags given right after the command, so explicit flags win, and a
key that is not a flag of the command is a usage error.  argparse accepts a
unique prefix of a flag, so ``simulate --eps 0.5`` is ``--eps-grid 0.5``.
A kernel that declares its range (the collision kernel's is 1) takes no
other ``--C`` in ``estimate`` or ``simulate``, and ``audit-smoothness``,
which audits the collision kernel, takes none.  Exit codes: 0 success, 1
usage error, 2 audit failure, 3 estimator bottom.

Every run prints the privacy-ledger summary to stderr; CSV goes to --out or
stdout.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from .. import applications as apps
from ..dp import LAWS, scratch_budget
from ..errors import AuditFailure, PrivustatError
from ..rng import as_generator
from ..ustat import check_range
from . import audits
from .experiments import (
    METHODS,
    DistributionSpec,
    ExperimentSpec,
    build_kernel,
    rows_to_csv,
    run_cell,
    run_experiment,
)

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
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def config_tokens(path: str) -> list[str]:
    """The flags a config file stands for: ``key = value`` is ``--key=value``.

    '#' starts a comment; ``_`` in a key reads as ``-``.  A ``true`` value
    gives the bare switch ``--key`` and a ``false`` one nothing.
    """
    tokens = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"bad config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if value.lower() == "true":
                tokens.append(flag)
            elif value.lower() != "false":
                tokens.append(f"{flag}={value}")
    return tokens


def expand_config(argv: list[str]) -> list[str]:
    """``argv`` with ``--config FILE`` or ``--config=FILE`` replaced by the
    file's flags, placed right after the command name so that explicit
    flags, parsed later, win."""
    i = next((i for i, token in enumerate(argv) if token.partition("=")[0] == "--config"), None)
    if i is None:
        return argv
    _, joined, path = argv[i].partition("=")
    end = i + 1
    if not joined:
        if i + 1 >= len(argv):
            raise CliError("--config needs a path")
        path, end = argv[i + 1], i + 2
    rest = argv[:i] + argv[end:]
    return rest[:1] + config_tokens(path) + rest[1:]


COMMON_FLAGS = {
    "seed": dict(type=int, default=0),
    "eps": dict(type=float, default=1.0),
    "alpha": dict(type=float, default=None),
}


@functools.cache  # parsing leaves the tree as it was, so one per process serves every call
def build_parser() -> Parser:
    parser = Parser(prog="privustat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *names):
        """--out, and those of --seed, --eps and --alpha that the command reads."""
        for name in names:
            p.add_argument(f"--{name}", **COMMON_FLAGS[name])
        p.add_argument("--out")

    est = sub.add_parser("estimate", help="one private estimate from a data file or simulation")
    add_common(est, "seed", "eps", "alpha")
    est.add_argument("--method", choices=METHODS, default="all")
    est.add_argument("--kernel", choices=("identity", "pair_mean", "collision"), default="identity")
    est.add_argument("--data")
    est.add_argument("--simulate", help="dist spec like 'gaussian,n=500,mu=1' or 'uniform,n=1000,m=50'")
    est.add_argument("--R", type=float, default=1.0, dest="r")
    est.add_argument("--tau", type=float, default=0.25)
    est.add_argument("--M", type=int, dest="m_subsets")
    est.add_argument("--xi", default="auto-degenerate", help="auto-subgaussian | auto-degenerate | <value>")
    est.add_argument("--C", type=float, default=1.0, dest="c")

    sim = sub.add_parser("simulate", help="grid experiment, CSV output")
    add_common(sim, "seed", "alpha")
    sim.add_argument("--method", choices=METHODS, default="all")
    sim.add_argument("--kernel", default="collision")
    sim.add_argument("--dist", default="uniform")
    sim.add_argument("--m", type=int, default=10)
    sim.add_argument("--amplitude", type=float, default=0.5)
    sim.add_argument("--mu", type=float, default=0.0)
    sim.add_argument("--sigma", type=float, default=1.0)
    sim.add_argument("--n-grid", default="100")
    sim.add_argument("--eps-grid", default="1.0")
    sim.add_argument("--M-grid", default="", dest="m_grid")
    sim.add_argument("--trials", type=int, default=10)
    sim.add_argument("--R", type=float, default=1.0, dest="r")
    sim.add_argument("--tau", type=float, default=0.25)
    sim.add_argument("--xi", default="auto-degenerate")
    sim.add_argument("--C", type=float, default=1.0, dest="c")
    sim.add_argument("--timing", action="store_true")

    uni = sub.add_parser("uniformity-test", help="private collision-based uniformity test")
    add_common(uni, "seed", "eps", "alpha")
    uni.add_argument("--m", type=int, required=True)
    uni.add_argument("--delta", type=float, default=0.5)
    uni.add_argument("--data")
    uni.add_argument("--simulate", help="'n=2000,kind=uniform' or 'n=2000,kind=split,a=0.5'")

    rgg = sub.add_parser("rgg-triangles", help="private triangle density of a graph")
    add_common(rgg, "seed", "eps", "alpha")
    rgg.add_argument("--graph")
    rgg.add_argument("--simulate", help="'n=300,r=0.3'")

    smo = sub.add_parser("audit-smoothness", help="exhaustive smooth-bound audit")
    add_common(smo, "eps")
    smo.add_argument("--n", type=int, default=5)
    smo.add_argument("--xi", type=float, default=0.0)

    noi = sub.add_parser("audit-noise", help="sampler goodness of fit")
    add_common(noi, "seed")
    noi.add_argument("--law", choices=tuple(LAWS), default="laplace")
    noi.add_argument("--draws", type=int, default=10**6)

    fix = sub.add_parser("fixture-adversarial", help="deterministic worst-case dataset pair")
    add_common(fix, "eps")
    fix.add_argument("--n", type=int, default=60)
    fix.add_argument("--k", type=int, default=2)

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


def simulated(args, flag: str) -> bool:
    """Whether the data comes from --simulate; exactly one of it and ``--flag`` must be set."""
    if (getattr(args, flag) is None) == (args.simulate is None):
        raise CliError(f"provide exactly one of --{flag} / --simulate")
    return args.simulate is not None


def check_kernel_range(args) -> None:
    """Refuse a --C other than the kernel's declared range, before any data are read or sampled."""
    kernel = build_kernel(args.kernel)
    try:
        check_range(kernel, args.c)
    except ValueError as exc:
        raise CliError(f"--{exc}") from None


def finish(args, budget, report, lines: list[str]) -> int:
    """Print the ledger; on bottom say why and exit 3, else emit the released lines."""
    print(budget.summary(), file=sys.stderr)
    if report.is_bottom:
        print(f"bottom: {report.bottom_reason}", file=sys.stderr)
        return EXIT_BOTTOM
    emit("".join(f"{line}\n" for line in lines), args.out)
    return EXIT_OK


def cmd_estimate(args) -> int:
    check_kernel_range(args)
    rng = as_generator(args.seed)
    if simulated(args, "data"):
        kv = parse_kv(args.simulate)
        n = int(kv.get("n", 100))
        dist = DistributionSpec(kv.get("kind", "gaussian"),
                                {k: v for k, v in kv.items() if k not in ("kind", "n")})
        data = dist.sampler()(rng, n)
    else:
        data = apps.read_reals(args.data)

    spec = ExperimentSpec(
        method=args.method,
        kernel=args.kernel,
        dist=DistributionSpec("data", {}),
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
    budget = scratch_budget()
    (report,) = run_cell(spec, build_kernel(spec.kernel), cell, [data], rng, [budget])
    lines = [f"estimate {report.estimate!r}"]
    if report.radius is not None:
        lines.append(f"radius {report.radius!r}")
    return finish(args, budget, report, lines)


def cmd_simulate(args) -> int:
    check_kernel_range(args)
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


SIMULATED_UNIFORMITY = {"uniform": "uniform", "split": "half_split"}


def cmd_uniformity(args) -> int:
    rng = as_generator(args.seed)
    if simulated(args, "data"):
        kv = parse_kv(args.simulate)
        kind = kv.get("kind", "uniform")
        if kind not in SIMULATED_UNIFORMITY:
            raise CliError(f"unknown simulation kind {kind!r}")
        dist = DistributionSpec(
            SIMULATED_UNIFORMITY[kind], {"m": args.m, "amplitude": float(kv.get("a", args.delta))}
        )
        data = dist.sampler()(rng, int(kv.get("n", 1000)))
    else:
        data = apps.read_categories(args.data)
    budget = scratch_budget()
    decision = apps.boosted_uniformity_test(
        data, args.m, args.delta, args.eps, args.alpha, rng, budget
    )
    verdict = "reject" if decision.reject else "accept"
    return finish(args, budget, decision.report, [
        f"decision {verdict}",
        f"statistic {decision.statistic!r}",
        f"threshold {decision.threshold!r}",
    ])


def cmd_rgg(args) -> int:
    rng = as_generator(args.seed)
    if simulated(args, "graph"):
        kv = parse_kv(args.simulate)
        graph = apps.sample_rgg(int(kv.get("n", 300)), float(kv.get("r", 0.3)), rng)
    else:
        graph = apps.read_edge_list(args.graph)
    budget = scratch_budget()
    report = apps.boosted_triangle_density(graph, args.eps, args.alpha, rng, budget)
    return finish(args, budget, report, [f"estimate {report.estimate!r}"])


def cmd_audit_smoothness(args) -> int:
    print("privacy ledger: audits spend no budget", file=sys.stderr)
    try:
        report = audits.smoothness_audit(n=args.n, eps=args.eps, xi=args.xi)
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


HANDLERS = {
    "estimate": cmd_estimate,
    "simulate": cmd_simulate,
    "uniformity-test": cmd_uniformity,
    "rgg-triangles": cmd_rgg,
    "audit-smoothness": cmd_audit_smoothness,
    "audit-noise": cmd_audit_noise,
    "fixture-adversarial": cmd_fixture,
}


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = expand_config(argv)
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args = build_parser().parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrivustatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
