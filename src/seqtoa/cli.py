"""Command-line front end.

Subcommands: ``estimate``, ``simulate``, ``crlb``, ``experiment``.  All read
one JSON input (``--input``) and write JSON/CSV artifacts (``--output``).

``--set KEY=VALUE`` overrides a field of the input document before it is
parsed; a key that the subcommand's schema does not read is a schema error.

Exit codes: 0 success, 1 I/O or schema problem, 2 numerical/estimation
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, montecarlo, serialize
from .errors import EstimationError
from .estimator import estimate
from .model import simulate_frame


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqtoa",
        description="Joint position/velocity/clock estimation from sequential one-way TOA frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="input JSON document")
        p.add_argument("--output", required=True, help="output path (JSON, or CSV base for experiments)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed where the command draws randomness (default 0)")
        p.add_argument(
            "--threads",
            type=int,
            help="accepted for compatibility; sweeps run on the calling thread",
        )
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a scalar in the input document before parsing (dotted keys allowed)",
        )

    common(sub.add_parser("estimate", help="estimate the target state from an observed frame"))
    common(sub.add_parser("simulate", help="synthesize a noisy frame from a scenario"))
    common(sub.add_parser("crlb", help="target-state CRLB of a scenario"))
    common(sub.add_parser("experiment", help="run a Monte-Carlo experiment, write CSVs"))
    return parser


def _apply_overrides(doc: dict, overrides: list[str], document: str) -> dict:
    for item in overrides:
        if "=" not in item:
            raise serialize.SchemaError("--set", f"expected KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        serialize.check_field(document, key)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except ValueError as exc:  # e.g. an integer literal too long to convert
            raise serialize.SchemaError("--set", f"{key}: {exc}") from None
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return doc


def _load_json(path: str) -> dict:
    with open(path, "r") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON, or an integer literal too long to convert
            raise serialize.SchemaError(path, str(exc)) from None


def _dump_json(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_estimate(args) -> int:
    frame = serialize.frame_from_dict(_apply_overrides(_load_json(args.input), args.set, "frame"))
    report = estimate(frame)
    _dump_json(serialize.report_to_dict(report), args.output)
    return 0


def _cmd_simulate(args) -> int:
    doc = _apply_overrides(_load_json(args.input), args.set, "scenario")
    rng = np.random.default_rng(args.seed)
    scenario = serialize.scenario_from_dict(doc, rng)
    frame = simulate_frame(scenario, args.seed)
    _dump_json(serialize.frame_to_dict(frame), args.output)
    return 0


def _cmd_crlb(args) -> int:
    doc = _apply_overrides(_load_json(args.input), args.set, "scenario")
    scenario = serialize.scenario_from_dict(doc, np.random.default_rng(args.seed))
    result = analysis.crlb_target(scenario)
    _dump_json(
        {
            "diagonal": list(np.diag(result.crlb_x)),
            "matrix": [list(row) for row in result.crlb_x],
        },
        args.output,
    )
    return 0


def _csv_paths(output: str) -> tuple[Path, Path]:
    out = Path(output)
    if out.suffix == ".csv":
        return out, out.with_name(out.stem + "_cdf.csv")
    return out.with_suffix(".csv"), Path(str(out) + "_cdf.csv")


def _cmd_experiment(args) -> int:
    doc = _apply_overrides(_load_json(args.input), args.set, "experiment")
    spec = serialize.experiment_spec_from_dict(doc, np.random.default_rng(args.seed))
    results = montecarlo.run_trials(spec)

    sweep_path, cdf_path = _csv_paths(args.output)
    montecarlo.write_sweep_csv(results, spec, sweep_path)
    wrote = [str(sweep_path)]
    if len(spec.sweep_values) == 1:
        montecarlo.write_cdf_csv(results, spec, cdf_path)
        wrote.append(str(cdf_path))

    print(f"# scheme={spec.scheme} n_trials={spec.n_trials} base_seed={spec.base_seed}")
    print(f"{'sweep_value':>12}  {'estimator':<14}{'position_mse':>16}{'crlb':>16}{'n_ok':>8}")
    for sweep_value in spec.sweep_values:
        for est_id in spec.estimators:
            st = results[(sweep_value, est_id)]
            print(
                f"{sweep_value:>12.4g}  {est_id:<14}{st.mse_position:>16.6g}"
                f"{st.crlb_trace_position:>16.6g}{st.n_success:>8d}"
            )
    print("# wrote: " + ", ".join(wrote))
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "crlb": _cmd_crlb,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise serialize.SchemaError("--seed", f"must be a non-negative integer, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (OSError, serialize.SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
