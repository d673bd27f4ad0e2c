"""Command line interface: one-shot designs, experiment sweeps, self-diagnostics.

Exit codes: 0 on success, 2 for configuration problems (including bad flags
and an output directory that cannot be created), 3 when a numerical solver
fails, 4 when a channel carries no usable signal dimension.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .config import SystemConfig, load_config
from .errors import ConfigError, DegenerateChannelError, SolverError
from .evaluation import average_jcas_pattern, beampattern_mse, sweep
from .pipeline import build_run_manifest, run_design
from .selfcheck import run_selfcheck
from .tables import write_table

OUT_DIR_ENV = "JCASBEAM_OUT_DIR"


def _make_out_dir(flag_value) -> Path:
    """Create the output directory: ``--out-dir``, else ``$JCASBEAM_OUT_DIR``, else ./out."""
    out_dir = Path(flag_value or os.environ.get(OUT_DIR_ENV) or "out")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror or exc}") from exc
    return out_dir


def _load_base_config(args) -> SystemConfig:
    return load_config(args.config) if args.config else SystemConfig()


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n")


def cmd_design(args) -> int:
    cfg = _load_base_config(args)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.rho is not None:
        overrides["rho"] = args.rho
    if args.jcas is not None:
        overrides["n_jcas"] = args.jcas
    if args.snr is not None:
        overrides["power_budget"] = cfg.snr_power(args.snr)
    if overrides:
        cfg = replace(cfg, **overrides)

    result = run_design(cfg)
    mse = beampattern_mse(result.precoders, result.jcas_subcarriers, result.grid)
    out_dir = _make_out_dir(args.out_dir)  # only now, so a failed design leaves no directory

    manifest = build_run_manifest(result)
    manifest["beampattern_mse"] = mse
    _write_json(out_dir / "design_manifest.json", manifest)
    write_table(
        out_dir / "rates.csv",
        [{"k": k, "rate": r} for k, r in enumerate(result.rates)],
        ["k", "rate"],
    )
    n_jcas = len(result.jcas_subcarriers)
    if n_jcas:
        pattern = average_jcas_pattern(result)
        write_table(
            out_dir / "beampattern.csv",
            [
                {"theta": t, "gain": g, "rho": cfg.rho, "J": n_jcas}
                for t, g in zip(result.grid.angles, pattern)
            ],
            ["theta", "gain", "rho", "J"],
        )
    if args.dump_residuals:
        rows = []
        for k in sorted(result.covariances):
            sol = result.covariances[k]
            for i, (p, d) in enumerate(zip(sol.primal_residuals, sol.dual_residuals)):
                rows.append({"k": k, "iter": i, "primal": p, "dual": d})
        write_table(out_dir / "residuals.csv", rows, ["k", "iter", "primal", "dual"])

    print(f"jcas subcarriers: {[int(k) for k in result.jcas_subcarriers]}")
    print(
        f"average rate: {result.avg_rate:.6g} bit/s/Hz "
        f"(eigenmode stage {result.eigen_avg_rate:.6g})"
    )
    if not math.isnan(mse):
        print(f"beampattern mse: {mse:.6g}")
    print(f"wrote results to {out_dir}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_base_config(args)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    snrs = args.snr if args.snr else [0.0, 5.0, 10.0]
    rhos = args.rho if args.rho else [0.25, 0.5, 0.75]
    jcas_counts = args.jcas if args.jcas else sorted({cfg.n_jcas, cfg.n_subcarriers})
    if args.realizations is not None:
        n_realizations = args.realizations
    else:
        n_realizations = 20 if args.fast else 100

    result = sweep(
        cfg,
        snrs,
        rhos,
        jcas_counts,
        n_realizations,
        base_seed=cfg.seed,
        jobs=args.jobs,
    )
    out_dir = _make_out_dir(args.out_dir)  # only now, so a failed sweep leaves no directory

    write_table(
        out_dir / "rates.csv",
        [
            {
                "snr": p.snr_db,
                "rho": p.rho,
                "J": p.n_jcas,
                "avg_rate": p.avg_rate,
                "avg_mse": p.avg_mse,
            }
            for p in result.points
        ],
        ["snr", "rho", "J", "avg_rate", "avg_mse"],
    )
    avg_rows = []
    member_rows = []
    for key in sorted(result.pattern_avg):
        rho, n_jcas = key
        for theta, gain in zip(result.angles, result.pattern_avg[key]):
            avg_rows.append({"theta": theta, "gain": gain, "rho": rho, "J": n_jcas})
        for theta, gain in zip(result.angles, result.pattern_member[key]):
            member_rows.append({"theta": theta, "gain": gain, "rho": rho, "J": n_jcas})
    pattern_columns = ["theta", "gain", "rho", "J"]
    write_table(out_dir / "beampattern_avg.csv", avg_rows, pattern_columns)
    write_table(out_dir / "beampattern_member.csv", member_rows, pattern_columns)

    _write_json(
        out_dir / "sweep_manifest.json",
        {
            "config": cfg.to_dict(),
            "snrs": list(snrs),
            "rhos": list(rhos),
            "jcas_counts": list(jcas_counts),
            "realizations": n_realizations,
            "base_seed": result.base_seed,
            "pattern_snr": result.pattern_snr,
            "points": [asdict(p) for p in result.points],
        },
    )

    for p in result.points:
        print(
            f"snr={p.snr_db:g} rho={p.rho:g} J={p.n_jcas} [{p.label}] "
            f"rate={p.avg_rate:.6g} mse={p.avg_mse:.6g}"
        )
    print(f"wrote results to {out_dir}")
    return 0


def cmd_selfcheck(args) -> int:
    ok, checks = run_selfcheck(seed=args.seed if args.seed is not None else 0)
    for name, passed, detail in checks:
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {detail}")
    if not ok:
        print("selfcheck failed", file=sys.stderr)
        return 3
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcasbeam",
        description="Joint communications and sensing beamformer design over multi-carrier MIMO.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="run one full design and write its outputs")
    d.add_argument("--config", help="path to an INI config file")
    d.add_argument("--out-dir", help=f"output directory (default ${OUT_DIR_ENV} or ./out)")
    d.add_argument("--seed", type=int, help="channel seed override")
    d.add_argument("--rho", type=float, help="sensing weight override in [0, 1]")
    d.add_argument("--jcas", type=int, help="sensing subcarrier count override")
    d.add_argument("--snr", type=float, help="SNR in dB; sets the power budget over the configured noise")
    d.add_argument("--dump-residuals", action="store_true", help="write covariance solver residuals")
    d.set_defaults(func=cmd_design)

    s = sub.add_parser("sweep", help="average metrics over many channel realizations")
    s.add_argument("--config", help="path to an INI config file")
    s.add_argument("--out-dir", help=f"output directory (default ${OUT_DIR_ENV} or ./out)")
    s.add_argument("--seed", type=int, help="base seed; realization r uses seed + r")
    s.add_argument("--snr", type=float, nargs="+", help="SNR points in dB (default 0 5 10)")
    s.add_argument("--rho", type=float, nargs="+", help="sensing weights (default 0.25 0.5 0.75)")
    s.add_argument("--jcas", type=int, nargs="+", help="sensing subcarrier counts (default config value and all)")
    s.add_argument("--realizations", type=int, help="channel realizations per point (default 100)")
    s.add_argument("--fast", action="store_true", help="use 20 realizations unless --realizations is given")
    s.add_argument("--jobs", type=int, default=1, help="worker processes for realizations")
    s.set_defaults(func=cmd_sweep)

    c = sub.add_parser("selfcheck", help="run quick numerical self-diagnostics")
    c.add_argument("--seed", type=int, help="seed for the random check instances")
    c.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except DegenerateChannelError as exc:
        print(f"degenerate channel: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
