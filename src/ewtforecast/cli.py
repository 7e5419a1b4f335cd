"""Command-line entry points.

    forecast run --config experiment.json [--seed N] [--out DIR]
    forecast decompose --input series.csv --bands K --out bands.csv
    forecast compare --reports DIR [--alpha 0.05]

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from ewtforecast.ewt import build_filter_bank, decompose, detect_boundaries, magnitude_spectrum
from ewtforecast.harness import (
    ConfigError,
    load_experiment_config,
    run_experiment,
    write_report,
)
from ewtforecast.metrics import EvalSeries, compute_metrics, friedman_nemenyi, wilcoxon_signed_rank
from ewtforecast.series import load_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="forecast", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="experiment config (or report) JSON file")
    run_p.add_argument("--seed", type=int, default=None, help="override the global seed")
    run_p.add_argument("--out", default=None, help="override the output directory")

    dec_p = sub.add_parser("decompose", help="emit a band decomposition of a series as CSV")
    dec_p.add_argument("--input", required=True, help="input CSV file")
    dec_p.add_argument("--bands", type=int, required=True, help="number of bands")
    dec_p.add_argument("--out", required=True, help="output CSV path")
    dec_p.add_argument("--column", default="0", help="column name or 0-based index")
    dec_p.add_argument("--has-header", action="store_true", help="input has a header row")
    dec_p.add_argument("--gamma", type=float, default=0.1, help="transition half-width ratio")

    cmp_p = sub.add_parser("compare", help="statistical comparison across report files")
    cmp_p.add_argument("--reports", required=True, help="directory holding report.json files")
    cmp_p.add_argument("--alpha", type=float, default=0.05, choices=[0.05, 0.10],
                       help="significance level for the critical difference")
    return parser


def _cmd_run(args) -> int:
    cfg = load_experiment_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    report = run_experiment(cfg)
    paths = write_report(report, cfg.output_dir)
    print(f"chosen: {report.chosen['name']}")
    for model in sorted(report.test_metrics):
        rmse = report.test_metrics[model].get("rmse")
        shown = "n/a" if rmse is None else f"{rmse:.6g}"
        print(f"test rmse[{model}] = {shown}")
    print(f"report written to {paths['report']}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    try:
        ts = load_csv(args.input, args.column, args.has_header)
        spectrum = magnitude_spectrum(ts.values)
        bounds = detect_boundaries(spectrum, args.bands)
        bank = build_filter_bank(bounds, len(ts), args.gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    dec = decompose(ts.values, bank)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"band_{k}" for k in range(1, bank.n_bands + 1)] + ["original"])
        writer.writerows(np.column_stack([dec.components.T, ts.values]).tolist())
    if bounds.uniform_fallback:
        print("note: too few spectral peaks; uniform band segmentation was used")
    print(f"wrote {bank.n_bands} bands for {len(ts)} samples to {args.out}")
    return EXIT_OK


def _load_reports(directory: Path) -> list[dict]:
    candidates = sorted(directory.glob("*.json")) + sorted(directory.glob("*/report.json"))
    reports = []
    for path in candidates:
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(raw, dict) and "forecasts" in raw and "test_metrics" in raw:
            raw["_path"] = str(path)
            reports.append(raw)
    return reports


def _cmd_compare(args) -> int:
    directory = Path(args.reports)
    if not directory.is_dir():
        raise ConfigError(f"no such report directory: {directory}")
    reports = _load_reports(directory)
    if len(reports) < 2:
        raise ConfigError(f"need at least 2 reports to compare, found {len(reports)}")

    common = set(reports[0]["forecasts"]["models"])
    for rep in reports[1:]:
        common &= set(rep["forecasts"]["models"])
    models = sorted(common)
    if len(models) < 2:
        raise ConfigError("reports share fewer than 2 model names")

    # Pairwise test on per-origin absolute errors pooled across reports; the
    # ranks use RMSE recomputed from the stored forecasts, which every report
    # has whatever metrics it selected.
    abs_errors = {m: [] for m in models}
    rmse = {m: [] for m in models}
    for rep in reports:
        actuals = np.asarray(rep["forecasts"]["actuals"])
        for m in models:
            pred = np.asarray(rep["forecasts"]["models"][m])
            abs_errors[m].extend(np.abs(pred - actuals))
            rmse[m].append(compute_metrics(EvalSeries(actuals, pred)).rmse)
    print(f"{len(reports)} reports, models: {', '.join(models)}")
    print("pairwise signed-rank tests on per-origin absolute errors:")
    for i, a in enumerate(models):
        for b in models[i + 1:]:
            res = wilcoxon_signed_rank(np.asarray(abs_errors[a]), np.asarray(abs_errors[b]))
            print(f"  {a} vs {b}: statistic={res.statistic:.1f} p={res.p_value:.4g} ({res.method})")

    result = friedman_nemenyi(np.asarray([rmse[m] for m in models]), alpha=args.alpha)
    print(f"average ranks over {len(reports)} reports (RMSE, lower rank is better):")
    for m, rank in zip(models, result.average_ranks):
        print(f"  {m}: {rank:.3f}")
    print(f"critical difference at alpha={args.alpha}: {result.critical_difference:.4f}")
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    handlers = {"run": _cmd_run, "decompose": _cmd_decompose, "compare": _cmd_compare}
    try:
        return handlers[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps failures to exit 3
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
