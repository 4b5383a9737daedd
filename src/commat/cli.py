"""Command-line front end: ingest scenario JSON, run analyses, emit report envelopes.

Every command writes one self-describing JSON envelope (inputs with digests,
effective seed and tolerances, tool version, result payload); rerunning on the
same inputs with the same seed reproduces the payload byte for byte.  Exit
codes: 0 ok, 2 validation error, 3 precondition error, 4 numerical failure.
"""

import argparse
import hashlib
import json
import math
import sys

from . import __version__
from .analysis import (
    DEFAULT_SEED,
    certify_info_completeness,
    information_storability,
    numerical_rank,
    robustness_gap,
    self_test,
    span_dims,
)
from .errors import (
    CommatError,
    ParseError,
    PreconditionError,
    UnknownFixtureError,
    ValidationError,
)
from .fixtures import FIXTURE_BUILDERS
from .operators import bloch_basis, completely_depolarizing_channel
from .properties import (
    construct_indistinguishable_pair,
    detect_unitality,
    eb_certificate,
)
from .scenario import Scenario, comm_matrix, comm_matrix_with_channel
from .serialize import (
    channel_payload,
    comm_matrix_from_json,
    frame_from_json,
    matrix_to_json,
    scenario_from_json,
    scenario_to_json,
    to_jsonable,
)
from .tomography import (
    build_frame,
    build_unital_frame,
    reconstruct_channel,
    reconstruct_unital,
    reconstruct_up_to_gauge,
)

REPORT_SCHEMA = "commat-report/1"


def _load_json(path: str, role: str) -> tuple:
    """Read an input file once: its parsed JSON and the SHA-256 of its bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except FileNotFoundError as exc:
        raise ParseError(f"{role} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{role} file {path} is not valid JSON: {exc.msg} at line {exc.lineno}, "
            f"column {exc.colno}"
        ) from exc


def _envelope(command: str, inputs: dict, seed: int, tolerances: dict, result: dict) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "tolerances": tolerances,
        "version": __version__,
        "result": result,
    }


def _emit(text: str, out: str | None):
    if not out:
        print(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write --out file {out}: {exc.strerror}") from exc


def _check_tolerances(args):
    # a chained comparison is false for NaN, so these reject non-finite values too
    if not 0.0 < args.tol_rank < 1.0:
        raise ValidationError(f"--tol-rank must be finite and in (0, 1), got {args.tol_rank}")
    if not 0.0 < args.tol_fit < math.inf:
        raise ValidationError(f"--tol-fit must be finite and positive, got {args.tol_fit}")


def cmd_analyze(args, docs: dict) -> dict:
    scenario = scenario_from_json(docs["scenario"])
    d = scenario.dim_in
    result = {}
    c = None
    if scenario.povm.dim == d:
        c = comm_matrix(scenario.states, scenario.povm)
        result["comm_matrix"] = matrix_to_json(c.entries)
    if scenario.channel is not None:
        cprime = comm_matrix_with_channel(scenario)
        result["comm_matrix_with_channel"] = matrix_to_json(cprime.entries)
    if c is None:
        result["note"] = "input and output dimensions differ; set-up analysis needs a channel"
        return result
    result["rank"] = numerical_rank(c, args.tol_rank)
    result["storability"] = information_storability(c)
    dim_s, dim_m, dim_int = span_dims(scenario.states, scenario.povm, args.tol_rank)
    result["span_dims"] = {"dim_v_rho": dim_s, "dim_v_m": dim_m, "dim_intersection": dim_int}
    result["completeness"] = to_jsonable(
        certify_info_completeness(c, d, (scenario.states, scenario.povm), args.tol_rank)
    )
    m, n = c.shape
    if m == n:
        result["self_test"] = to_jsonable(
            self_test(c, d, restarts=args.restarts, seed=args.seed, residual_tol=args.tol_fit)
        )
        result["robustness"] = to_jsonable(
            robustness_gap(Scenario(states=scenario.states, povm=scenario.povm))
        )
    return result


def cmd_tomography(args, docs: dict) -> dict:
    cprime = comm_matrix_from_json(docs["cprime"])
    scenario = None
    if args.scenario:
        scenario = scenario_from_json(docs["scenario"])
    if args.mode == "full":
        if args.frame:
            frame = frame_from_json(docs["frame"])
        elif scenario is not None:
            frame = build_frame(
                scenario.states,
                scenario.povm,
                bloch_basis(scenario.dim_in),
                bloch_basis(scenario.povm.dim),
            )
        else:
            raise PreconditionError("full tomography needs --frame or --scenario")
        channel = reconstruct_channel(frame, cprime)
        return {"mode": "full", "channel": channel_payload(channel)}
    if args.mode == "unital":
        if scenario is None:
            raise PreconditionError(
                "unital tomography needs --scenario (the pre-channel matrix validates the frame)"
            )
        basis = bloch_basis(scenario.dim_in)
        frame = build_unital_frame(scenario.states, scenario.povm, basis)
        c = comm_matrix(scenario.states, scenario.povm)
        channel = reconstruct_unital(frame, c, cprime)
        return {"mode": "unital", "channel": channel_payload(channel)}
    if args.mode == "gauge":
        if scenario is None:
            raise PreconditionError("gauge tomography needs --scenario")
        c = comm_matrix(scenario.states, scenario.povm)
        estimate = reconstruct_up_to_gauge(
            c, cprime, scenario.dim_in, restarts=args.restarts, seed=args.seed
        )
        return {
            "mode": "gauge",
            "channel": channel_payload(estimate.channel),
            "gauge_note": estimate.gauge_note,
            "self_test": to_jsonable(estimate.certificate),
        }
    raise PreconditionError(f"unknown mode {args.mode!r}")


def cmd_properties(args, docs: dict) -> dict:
    scenario = scenario_from_json(docs["scenario"])
    d = scenario.dim_in
    states, povm = scenario.states, scenario.povm
    if args.check == "witness":
        pair = construct_indistinguishable_pair(states, povm)
        return {
            "check": "witness",
            "case": pair.case_tag,
            "witness_operator": matrix_to_json(pair.witness_operator),
            "phi1": channel_payload(pair.phi1),
            "phi2": channel_payload(pair.phi2),
        }
    c = comm_matrix(states, povm)
    if args.cprime:
        cprime = comm_matrix_from_json(docs["cprime"])
    elif scenario.channel is not None:
        cprime = comm_matrix_with_channel(scenario)
    else:
        raise PreconditionError("--cprime file or a scenario channel is required")
    if args.check == "unitality":
        basis = bloch_basis(d)
        c0 = comm_matrix_with_channel(
            Scenario(states=states, povm=povm, channel=completely_depolarizing_channel(basis))
        )
        verdict = detect_unitality(
            c,
            c0,
            cprime,
            d,
            povm_complete=args.assume_povm_complete,
            states=states,
        )
        return {"check": "unitality", "verdict": to_jsonable(verdict)}
    if args.check == "eb":
        realization = None
        if scenario.channel is not None and scenario.channel.mp_realization is not None:
            realization = scenario.channel.mp_realization
        cert = eb_certificate(
            c,
            cprime,
            d,
            l_max=args.l_max if args.l_max else d * d,
            seed=args.seed,
            restarts=args.restarts,
            realization=realization,
            residual_tol=args.tol_fit,
        )
        return {"check": "eb", "certificate": to_jsonable(cert)}
    raise PreconditionError(f"unknown check {args.check!r}")


def cmd_fixtures(args, docs: dict) -> dict:
    name = args.name
    if not args.out:
        raise PreconditionError("fixtures needs --out for the scenario file")
    if name not in FIXTURE_BUILDERS:
        raise UnknownFixtureError(
            f"unknown fixture {name!r}", available=list(FIXTURE_BUILDERS)
        )
    states, povm, *extra = FIXTURE_BUILDERS[name]()
    scenario = Scenario(states=states, povm=povm, channel=extra[0] if extra else None)
    _emit(json.dumps(scenario_to_json(scenario), sort_keys=True, indent=2), args.out)
    written = args.out
    args.out = None  # the report envelope goes to stdout, not over the scenario file
    return {"fixture": name, "written": written}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commat",
        description="Certify and reconstruct quantum channels from prepare-and-measure statistics",
    )
    parser.add_argument("--version", action="version", version=f"commat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--tol-rank", type=float, default=1e-9, dest="tol_rank")
    common.add_argument("--tol-fit", type=float, default=1e-8, dest="tol_fit")
    common.add_argument("--restarts", type=int, default=32)
    common.add_argument("--out", default=None)

    p = sub.add_parser("analyze", parents=[common], help="rank, storability, completeness, self-test")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_analyze, roles=("scenario",))

    p = sub.add_parser("tomography", parents=[common], help="reconstruct a channel from C'")
    p.add_argument("--scenario")
    p.add_argument("--frame")
    p.add_argument("--cprime", required=True)
    p.add_argument("--mode", choices=["full", "unital", "gauge"], default="full")
    p.set_defaults(func=cmd_tomography, roles=("scenario", "frame", "cprime"))

    p = sub.add_parser("properties", parents=[common], help="unitality / EB / witness checks")
    p.add_argument("--scenario", required=True)
    p.add_argument("--cprime")
    p.add_argument("--check", choices=["unitality", "eb", "witness"], required=True)
    p.add_argument("--l-max", type=int, default=None, dest="l_max")
    p.add_argument(
        "--assume-povm-complete",
        action="store_true",
        help="assert measurement informational completeness when rank cannot certify it",
    )
    p.set_defaults(func=cmd_properties, roles=("scenario", "cprime"))

    p = sub.add_parser("fixtures", parents=[common], help="write a canonical scenario file")
    p.add_argument("name")
    p.set_defaults(func=cmd_fixtures, roles=())
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    tolerances = {"tol_rank": args.tol_rank, "tol_fit": args.tol_fit, "restarts": args.restarts}
    try:
        _check_tolerances(args)
        paths = {role: getattr(args, role) for role in args.roles if getattr(args, role)}
        loaded = {role: _load_json(path, role) for role, path in paths.items()}
        result = args.func(args, {role: doc for role, (doc, _) in loaded.items()})
        inputs = {role: {"path": paths[role], "sha256": sha} for role, (_, sha) in loaded.items()}
        envelope = _envelope(args.command, inputs, args.seed, tolerances, result)
        _emit(json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False), args.out)
    except CommatError as exc:
        json.dump(exc.to_json_dict(), sys.stderr, sort_keys=True, default=str)
        sys.stderr.write("\n")
        return exc.exit_code
    except Exception as exc:  # numerical failures not mapped to a library error
        json.dump(
            {"code": "internal-numerical-failure", "message": f"{type(exc).__name__}: {exc}"},
            sys.stderr,
            sort_keys=True,
            default=str,
        )
        sys.stderr.write("\n")
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
