"""Command line interface: one-shot designs and experiment sweeps.

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

import numpy as np

from .config import SystemConfig, load_config
from .errors import ConfigError, DegenerateChannelError, SolverError
from .evaluation import mask_mse, precoder_pattern, sweep
from .pipeline import build_run_manifest, run_design
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
    cfg = load_config(args.config) if args.config else SystemConfig()
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _pattern_columns(angles, patterns) -> dict:
    """The columns of a beampattern table: one block of grid rows per ``(rho, J)`` key, in key order."""
    keys = sorted(patterns)
    return {
        "theta": np.tile(angles, len(keys)),
        "gain": np.array([patterns[key] for key in keys]).reshape(-1),
        "rho": np.repeat([rho for rho, _ in keys], len(angles)),
        "J": np.repeat([n_jcas for _, n_jcas in keys], len(angles)),
    }


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
    if args.rho is not None:
        overrides["rho"] = args.rho
    if args.jcas is not None:
        overrides["n_jcas"] = args.jcas
    if args.snr is not None:
        overrides["power_budget"] = cfg.snr_power(args.snr)
    if overrides:
        cfg = replace(cfg, **overrides)

    result = run_design(cfg)
    jcas = result.jcas_subcarriers
    patterns = precoder_pattern(result.precoders[jcas], result.grid.steering(jcas))  # (J, T)
    mse = mask_mse(patterns, result.grid)
    out_dir = _make_out_dir(args.out_dir)  # only now, so a failed design leaves no directory

    manifest = build_run_manifest(result)
    manifest["beampattern_mse"] = mse
    _write_json(out_dir / "design_manifest.json", manifest)
    write_table(out_dir / "rates.csv", {"k": np.arange(len(result.rates)), "rate": result.rates})
    if len(jcas):
        average = {(cfg.rho, len(jcas)): np.mean(patterns, axis=0)}
        write_table(out_dir / "beampattern.csv", _pattern_columns(result.grid.angles, average))

    print(f"jcas subcarriers: {[int(k) for k in jcas]}")
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
    snrs = args.snr if args.snr else [0.0, 5.0, 10.0]
    rhos = args.rho if args.rho else [0.25, 0.5, 0.75]
    jcas_counts = args.jcas if args.jcas else sorted({cfg.n_jcas, cfg.n_subcarriers})

    result = sweep(cfg, snrs, rhos, jcas_counts, args.realizations, jobs=args.jobs)
    out_dir = _make_out_dir(args.out_dir)  # only now, so a failed sweep leaves no directory

    points = result.points
    write_table(
        out_dir / "rates.csv",
        {
            "snr": [p.snr_db for p in points],
            "rho": [p.rho for p in points],
            "J": [p.n_jcas for p in points],
            "avg_rate": [p.avg_rate for p in points],
            "avg_mse": [p.avg_mse for p in points],
        },
    )
    write_table(out_dir / "beampattern_avg.csv", _pattern_columns(result.angles, result.pattern_avg))
    write_table(out_dir / "beampattern_member.csv", _pattern_columns(result.angles, result.pattern_member))

    _write_json(
        out_dir / "sweep_manifest.json",
        {
            "config": asdict(cfg),
            "snrs": list(snrs),
            "rhos": list(rhos),
            "jcas_counts": list(jcas_counts),
            "realizations": args.realizations,
            "base_seed": cfg.seed,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcasbeam",
        description="Joint communications and sensing beamformer design over multi-carrier MIMO.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="path to an INI config file")
    shared.add_argument("--out-dir", help=f"output directory (default ${OUT_DIR_ENV} or ./out)")
    shared.add_argument("--seed", type=int, help="channel seed override; a sweep's realization r uses seed + r")

    d = sub.add_parser("design", parents=[shared], help="run one full design and write its outputs")
    d.add_argument("--rho", type=float, help="sensing weight override in [0, 1]")
    d.add_argument("--jcas", type=int, help="sensing subcarrier count override")
    d.add_argument("--snr", type=float, help="SNR in dB; sets the power budget over the configured noise")
    d.set_defaults(func=cmd_design)

    s = sub.add_parser("sweep", parents=[shared], help="average metrics over many channel realizations")
    s.add_argument("--snr", type=float, nargs="+", help="SNR points in dB (default 0 5 10)")
    s.add_argument("--rho", type=float, nargs="+", help="sensing weights (default 0.25 0.5 0.75)")
    s.add_argument("--jcas", type=int, nargs="+", help="sensing subcarrier counts (default config value and all)")
    s.add_argument("--realizations", type=int, default=100, help="channel realizations per point (default 100)")
    s.add_argument("--jobs", type=int, default=1, help="worker processes for realizations")
    s.set_defaults(func=cmd_sweep)

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
