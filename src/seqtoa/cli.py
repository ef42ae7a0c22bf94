"""Command-line front end.

Subcommands: ``estimate``, ``simulate``, ``crlb``, ``experiment``.  Each reads
one JSON input (``--input``), writes JSON/CSV artifacts (``--output``) and
takes repeatable ``--set KEY=VALUE`` overrides of fields of the input document,
applied before it is parsed; a key that the subcommand's schema does not read
is a schema error.  ``simulate`` and ``crlb`` also take ``--seed``, the seed of
a frame's noise and of a scenario's sampled noise; ``experiment`` also takes
``--threads``, accepted for compatibility: sweeps run on the calling thread.

Exit codes: 0 success, 1 usage, I/O or schema problem, 2 numerical/estimation
failure.  :func:`main` alone maps a failure to its code.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, montecarlo, serialize
from .errors import EstimationError
from .estimator import estimate
from .model import NonFiniteFrameError, simulate_frame


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is an input error: :func:`main` reports it in one line and exits 1."""
        raise serialize.SchemaError(self.prog, message)


def _seed(text: str) -> int:
    """The ``--seed`` value: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it and
    never changes it (``--set``'s default list is copied before the first
    append), so one :func:`main` call sees nothing of another's."""
    parser = _Parser(
        prog="seqtoa",
        description="Joint position/velocity/clock estimation from sequential one-way TOA frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = ("--seed", dict(type=_seed, default=0,
                           help="RNG seed of the frame noise and of sampled scenario noise (default 0)"))
    threads = ("--threads", dict(type=int, help="accepted for compatibility; sweeps run on the calling thread"))
    for name, run, summary, options in [
        ("estimate", _cmd_estimate, "estimate the target state from an observed frame", []),
        ("simulate", _cmd_simulate, "synthesize a noisy frame from a scenario", [seed]),
        ("crlb", _cmd_crlb, "target-state CRLB of a scenario", [seed]),
        ("experiment", _cmd_experiment, "run a Monte-Carlo experiment, write CSVs", [threads]),
    ]:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--input", required=True, help="input JSON document")
        p.add_argument("--output", required=True, help="output path (JSON, or CSV base for experiments)")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a scalar in the input document before parsing (dotted keys allowed)")
    return parser


def _apply_overrides(doc: dict, overrides: list[str], document: str) -> dict:
    if overrides and not isinstance(doc, dict):
        raise serialize.SchemaError(document, f"expected an object, got {type(doc).__name__}")
    for item in overrides:
        if "=" not in item:
            raise serialize.SchemaError("--set", f"expected KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        serialize.check_field(document, key)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except (ValueError, RecursionError) as exc:  # an integer literal too long to convert, arrays nested too deep
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
        except (ValueError, RecursionError) as exc:  # malformed JSON, an integer literal too long to convert, nesting too deep
            raise serialize.SchemaError(path, str(exc)) from None


def _dump_json(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _scenario_rng(seed: int) -> np.random.Generator:
    """The stream a scenario's sampled noise reads: a child of ``--seed``, independent of ``simulate_frame``'s."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def _cmd_estimate(args) -> int:
    frame = serialize.frame_from_dict(_apply_overrides(_load_json(args.input), args.set, "frame"))
    report = estimate(frame)
    _dump_json(serialize.report_to_dict(report), args.output)
    return 0


def _cmd_simulate(args) -> int:
    doc = _apply_overrides(_load_json(args.input), args.set, "scenario")
    scenario = serialize.scenario_from_dict(doc, _scenario_rng(args.seed))
    _dump_json(serialize.frame_to_dict(simulate_frame(scenario, args.seed)), args.output)
    return 0


def _cmd_crlb(args) -> int:
    doc = _apply_overrides(_load_json(args.input), args.set, "scenario")
    scenario = serialize.scenario_from_dict(doc, _scenario_rng(args.seed))
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
    """``<base>.csv`` and ``<base>_cdf.csv``, ``<base>`` being ``output`` without a trailing ``.csv``."""
    base = output.removesuffix(".csv")
    return Path(base + ".csv"), Path(base + "_cdf.csv")


def _cmd_experiment(args) -> int:
    doc = _apply_overrides(_load_json(args.input), args.set, "experiment")
    # no sweep reads an inline scenario's sampled noise; it is drawn as at seed 0
    spec = serialize.experiment_spec_from_dict(doc, _scenario_rng(0))
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


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except (OSError, serialize.SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonFiniteFrameError as exc:  # finite inputs so large that the simulated observations overflow
        print(f"error: simulated observations: {exc}", file=sys.stderr)
        return 1
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
