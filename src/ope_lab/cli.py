"""Command line entry points.

    ope-lab simulate   --config cfg.json [--seed S] [--reps R] [--out path] [--threads T]
    ope-lab estimate   --data data.csv --instance inst.json --estimator id [--seed S]
    ope-lab diagnose   {critical-radius | small-ball | shatter | rademacher-profile} ...
    ope-lab lowerbound {tilt | sigma-pair | mixture} --instance inst.json ...

Exit status 0 on success.  On failure, a single machine-readable JSON line
is written to stderr and the status is 1.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import complexity, core, estimators, lowerbounds, regression, simlab


def _simulate(args) -> int:
    config = simlab.ExperimentConfig.load(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.reps is not None:
        overrides["reps"] = args.reps
    if args.out is not None:
        overrides["output"] = args.out
    if args.threads is not None:
        overrides["threads"] = args.threads
    if overrides:
        config = config.with_overrides(**overrides)
    table = simlab.run_experiment(config)
    if config.output:
        simlab.write_results_csv(table, config.output)
        print(f"wrote {len(table.rows)} rows to {config.output}")
    else:
        sys.stdout.write(table.to_csv())
    return 0


def _estimate(args) -> int:
    data = core.read_dataset_csv(args.data)
    instance = simlab.load_instance(args.instance)
    report = estimators.estimate(args.estimator, data, instance, seed=args.seed)
    print(estimators.REPORT_CSV_HEADER)
    print(report.csv_row())
    return 0


def _ellipsoid_spec(instance, feature_map_id, radius):
    feature_map = regression.resolve_feature_map(feature_map_id)
    sigma, gamma = complexity.moment_matrices(instance, feature_map)
    try:
        spec = complexity.LocalizedClassSpec(
            class_id="linear-ellipsoid",
            radius=radius,
            feature_map=feature_map,
            sigma_matrix=sigma,
        )
    except ValueError as exc:
        # e.g. a weight that zeroes an arm collapses features that differ only there
        raise ValueError(f"feature map {feature_map_id!r} on this instance: {exc}; "
                         "try --features state-linear") from exc
    return spec, gamma


def _diagnose(args) -> int:
    if args.diag_command == "shatter":
        if args.family == "hadamard":
            cert = complexity.hadamard_glm_shatter(
                args.p, amplitude=args.amplitude, radius=args.radius
            )
        else:
            cert = complexity.sparse_packing_shatter(args.p, args.s)
        # both constructors verify the certificate and raise if it fails
        print(json.dumps({"family": args.family, "points": cert.n_points,
                          "scale": cert.scale, "verified": True}))
        return 0

    instance = simlab.load_instance(args.instance)
    if args.diag_command == "small-ball":
        est = complexity.small_ball_estimate(
            instance,
            h=lambda x, a: np.ones_like(np.asarray(x, dtype=float)),
            alpha1=args.alpha1,
            reps=args.reps,
            seed=args.seed,
        )
        print(json.dumps({"probability": est.value, "stderr": est.stderr}))
        return 0
    if args.diag_command == "critical-radius":
        spec, gamma = _ellipsoid_spec(instance, args.features, radius=1.0)
        value = complexity.critical_radius(
            instance,
            spec,
            m=args.m,
            kind=args.kind,
            source=args.source,
            alpha1=args.alpha1,
            alpha2=args.alpha2,
            reps=args.reps,
            seed=args.seed,
            gamma_matrix=gamma,
        )
        print(json.dumps({"kind": args.kind, "source": args.source, "radius": value}))
        return 0
    if args.diag_command == "rademacher-profile":
        spec, _ = _ellipsoid_spec(instance, args.features, radius=1.0)
        for r in args.radii:
            spec.with_radius(r)  # rejects a negative radius
        # with common random numbers the ellipsoid's R(r) is r * R(1)
        unit = complexity.rademacher_R_mc(
            instance, spec, m=args.m, reps=args.reps, seed=args.seed
        )
        rows = [
            (r, complexity.ComplexityEstimate(r * unit.value, r * unit.stderr, unit.reps))
            for r in args.radii
        ]
        text = complexity.profile_csv_rows(rows)
        if args.out:
            with open(args.out, "w", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    raise ValueError(f"unknown diagnose command {args.diag_command!r}")


def _lowerbound(args) -> int:
    instance = simlab.load_instance(args.instance)
    if args.lb_command == "tilt":
        report = lowerbounds.tilted_instance(instance, n=args.n)
    elif args.lb_command == "sigma-pair":
        report = lowerbounds.sigma_perturbed_pair(instance, n=args.n)
    else:
        report = lowerbounds.delta_mixture(
            instance,
            delta=lambda x, a: np.full(np.broadcast(x, a).shape, args.delta),
            s=args.s,
            reps=args.reps,
            seed=args.seed,
        )
    print(report.to_text())
    print(lowerbounds.CSV_HEADER)
    print(report.csv_row())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ope-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment grid")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--reps", type=int)
    sim.add_argument("--out")
    sim.add_argument(
        "--threads",
        type=int,
        help="worker processes for the replications (default 1: run in this "
        "process); the results do not depend on it",
    )
    sim.set_defaults(func=_simulate)

    est = sub.add_parser("estimate", help="run one estimator on a stored dataset")
    est.add_argument("--data", required=True)
    est.add_argument("--instance", required=True)
    # no argparse choices: an unknown id fails with the one-line JSON error
    est.add_argument(
        "--estimator", required=True, help=f"one of {', '.join(estimators.ESTIMATOR_IDS)}"
    )
    est.add_argument("--seed", type=int, default=0)
    est.set_defaults(func=_estimate)

    diag = sub.add_parser("diagnose", help="complexity diagnostics")
    dsub = diag.add_subparsers(dest="diag_command", required=True)

    dcr = dsub.add_parser("critical-radius")
    dcr.add_argument("--instance", required=True)
    dcr.add_argument("--m", type=int, required=True)
    dcr.add_argument("--kind", choices=("s", "r"), default="s")
    dcr.add_argument("--source", choices=("mc", "closed-form-linear"), default="mc")
    dcr.add_argument("--alpha1", type=float, default=1.0)
    dcr.add_argument("--alpha2", type=float, default=1.0)
    dcr.add_argument("--reps", type=int, default=2000)
    dcr.add_argument("--seed", type=int, default=0)
    dcr.set_defaults(func=_diagnose)

    dsb = dsub.add_parser("small-ball")
    dsb.add_argument("--instance", required=True)
    dsb.add_argument("--alpha1", type=float, required=True)
    dsb.add_argument("--reps", type=int, default=10000)
    dsb.add_argument("--seed", type=int, default=0)
    dsb.set_defaults(func=_diagnose)

    dsh = dsub.add_parser("shatter")
    dsh.add_argument("--family", choices=("hadamard", "sparse"), required=True)
    dsh.add_argument("--p", type=int, required=True)
    dsh.add_argument("--s", type=int, default=2)
    dsh.add_argument("--amplitude", type=float, default=1.0)
    dsh.add_argument("--radius", type=float, default=1.0)
    dsh.set_defaults(func=_diagnose)

    dpr = dsub.add_parser("rademacher-profile")
    dpr.add_argument("--instance", required=True)
    dpr.add_argument("--m", type=int, required=True)
    dpr.add_argument("--radii", type=float, nargs="+", default=(0.5, 1.0, 2.0))
    dpr.add_argument("--reps", type=int, default=2000)
    dpr.add_argument("--seed", type=int, default=0)
    dpr.add_argument("--out")
    dpr.set_defaults(func=_diagnose)
    for linear_class in (dcr, dpr):
        linear_class.add_argument(
            "--features", default="bilinear-xa", choices=sorted(regression.FEATURE_MAPS),
            help="feature map; the builtin missing-data family needs state-linear",
        )

    lb = sub.add_parser("lowerbound", help="adversarial construction reports")
    lsub = lb.add_subparsers(dest="lb_command", required=True)
    for name in ("tilt", "sigma-pair"):
        p = lsub.add_parser(name)
        p.add_argument("--instance", required=True)
        p.add_argument("--n", type=int, required=True)
        p.set_defaults(func=_lowerbound)
    mix = lsub.add_parser("mixture")
    mix.add_argument("--instance", required=True)
    mix.add_argument("--s", type=float, required=True)
    mix.add_argument("--delta", type=float, default=1.0)
    mix.add_argument("--reps", type=int, default=1000)
    mix.add_argument("--seed", type=int, default=0)
    mix.set_defaults(func=_lowerbound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a single machine-readable line
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
