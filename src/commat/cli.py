"""Command-line front end: ingest scenario JSON, run analyses, emit report envelopes.

Every command writes one self-describing JSON envelope (inputs with digests,
the seed and tolerances the command passed to the library, tool version,
result payload); rerunning on the same inputs with the same seed reproduces the
payload byte for byte.  The cmd_* functions return library objects, which main
serializes once; every file and report is written by ``serialize.dumps``.
Exit codes: 0 ok, 2 validation error, 3 precondition error, 4 numerical failure.
"""

import argparse
import functools
import hashlib
import json
import math
import sys
import warnings

from . import __version__
from ._linalg import RANK_REL_TOL
from .analysis import (
    DEFAULT_SEED,
    GRAM_RESIDUAL_TOL,
    certify_info_completeness,
    information_storability,
    robustness_gap,
    self_test,
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
    EB_RESIDUAL_TOL,
    construct_indistinguishable_pair,
    detect_unitality,
    eb_certificate,
)
from .scenario import Scenario, comm_matrix, comm_matrix_with_channel
from .serialize import (
    comm_matrix_from_json,
    dumps,
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
# the options a report lists under "tolerances", each where its command accepts it
TOLERANCES = ("tol_rank", "tol_fit", "restarts")


def _load_json(path: str, role: str) -> tuple:
    """Read an input file once: its parsed JSON and the SHA-256 of its bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except (OSError, UnicodeDecodeError) as exc:  # no such file, a directory, not text
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ParseError(f"{role} file {path} cannot be read: {reason}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{role} file {path} is not valid JSON: {exc.msg} at line {exc.lineno}, "
            f"column {exc.colno}"
        ) from exc


def _emit(text: str, out: str | None):
    if not out:
        print(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write --out file {out}: {exc.strerror}") from exc


def _check_tolerances(tolerances: dict):
    # a chained comparison is false for NaN, so these reject non-finite values too
    tol_rank, tol_fit = tolerances.get("tol_rank"), tolerances.get("tol_fit")
    if tol_rank is not None and not 0.0 < tol_rank < 1.0:
        raise ValidationError(f"--tol-rank must be finite and in (0, 1), got {tol_rank}")
    if tol_fit is not None and not 0.0 < tol_fit < math.inf:
        raise ValidationError(f"--tol-fit must be finite and positive, got {tol_fit}")


def cmd_analyze(args, docs: dict) -> dict:
    scenario = scenario_from_json(docs["scenario"])
    states, povm, d = scenario.states, scenario.povm, scenario.dim_in
    result = {}
    c = None
    if povm.dim == d:
        c = result["comm_matrix"] = comm_matrix(states, povm)
    if scenario.channel is not None:
        result["comm_matrix_with_channel"] = comm_matrix_with_channel(scenario)
    if c is None:
        result["note"] = "input and output dimensions differ; set-up analysis needs a channel"
        return result
    completeness = certify_info_completeness(c, d, (states, povm), rel_tol=args.tol_rank)
    result["rank"] = completeness.rank
    result["storability"] = information_storability(c)
    result["span_dims"] = {
        "dim_v_rho": completeness.dim_v_rho,
        "dim_v_m": completeness.dim_v_m,
        "dim_intersection": completeness.dim_intersection,
    }
    result["completeness"] = completeness
    m, n = c.shape
    if m == n:
        try:
            result["self_test"] = self_test(
                c, d, restarts=args.restarts, seed=args.seed, residual_tol=args.tol_fit
            )
        except PreconditionError as exc:  # the report keeps what was computed before it
            result["self_test"] = exc.to_json_dict()
        result["robustness"] = robustness_gap(Scenario(states=states, povm=povm))
    return result


def cmd_tomography(args, docs: dict) -> dict:
    cprime = comm_matrix_from_json(docs["cprime"])
    scenario = scenario_from_json(docs["scenario"])
    states, povm, d = scenario.states, scenario.povm, scenario.dim_in
    if args.mode == "full":
        frame = build_frame(states, povm, bloch_basis(d), bloch_basis(povm.dim))
        return {"mode": "full", "channel": reconstruct_channel(frame, cprime)}
    c = comm_matrix(states, povm)
    if args.mode == "unital":
        frame = build_unital_frame(states, povm, bloch_basis(d))
        return {"mode": "unital", "channel": reconstruct_unital(frame, c, cprime)}
    estimate = reconstruct_up_to_gauge(
        c, cprime, d, restarts=args.restarts, seed=args.seed, residual_tol=args.tol_fit
    )
    return {
        "mode": "gauge",
        "channel": estimate.channel,
        "gauge_note": estimate.gauge_note,
        "self_test": estimate.certificate,
    }


def cmd_properties(args, docs: dict) -> dict:
    scenario = scenario_from_json(docs["scenario"])
    states, povm, d = scenario.states, scenario.povm, scenario.dim_in
    if args.check == "witness":
        pair = construct_indistinguishable_pair(states, povm)
        return {
            "check": "witness",
            "case": pair.case_tag,
            "witness_operator": pair.witness_operator,
            "phi1": pair.phi1,
            "phi2": pair.phi2,
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
        verdict = detect_unitality(c, c0, cprime, d)
        return {"check": "unitality", "verdict": verdict}
    cert = eb_certificate(
        c,
        cprime,
        d,
        l_max=d * d if args.l_max is None else args.l_max,
        seed=args.seed,
        restarts=args.restarts,
        realization=scenario.channel.mp_realization if scenario.channel is not None else None,
        residual_tol=args.tol_fit,
    )
    return {"check": "eb", "certificate": cert}


def cmd_fixtures(args, docs: dict) -> dict:
    name = args.name
    if name not in FIXTURE_BUILDERS:
        raise UnknownFixtureError(
            f"unknown fixture {name!r}", available=list(FIXTURE_BUILDERS)
        )
    states, povm, *extra = FIXTURE_BUILDERS[name]()
    scenario = Scenario(states=states, povm=povm, channel=extra[0] if extra else None)
    _emit(dumps(scenario_to_json(scenario)), args.scenario_out)
    return {"fixture": name, "written": args.scenario_out}


def _add_run_options(p: argparse.ArgumentParser, tol_fit: float):
    """The options of every command that runs an analysis: the search budget and --out."""
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument(
        "--tol-fit",
        type=float,
        default=tol_fit,
        dest="tol_fit",
        help="fit tolerance (default %(default)s); it bounds two different quantities: the "
        "self-test's sum of squared Gram errors (analyze, tomography --mode gauge) and the "
        "Frobenius norm of C' - A B (properties --check eb)",
    )
    p.add_argument("--out", default=None, help="write the report here instead of to stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each command names its cmd_*
    function, which main looks up in this module when the command runs."""
    parser = argparse.ArgumentParser(
        prog="commat",
        description="Certify and reconstruct quantum channels from prepare-and-measure statistics",
    )
    parser.add_argument("--version", action="version", version=f"commat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="rank, storability, completeness, self-test")
    p.add_argument("--scenario", required=True)
    p.add_argument("--tol-rank", type=float, default=RANK_REL_TOL, dest="tol_rank")
    _add_run_options(p, GRAM_RESIDUAL_TOL)
    p.set_defaults(func="cmd_analyze", roles=("scenario",))

    p = sub.add_parser("tomography", help="reconstruct a channel from C'")
    p.add_argument("--scenario", required=True)
    p.add_argument("--cprime", required=True)
    p.add_argument("--mode", choices=["full", "unital", "gauge"], default="full")
    _add_run_options(p, GRAM_RESIDUAL_TOL)
    p.set_defaults(func="cmd_tomography", roles=("scenario", "cprime"))

    p = sub.add_parser("properties", help="unitality / EB / witness checks")
    p.add_argument("--scenario", required=True)
    p.add_argument("--cprime")
    p.add_argument("--check", choices=["unitality", "eb", "witness"], required=True)
    p.add_argument("--l-max", type=int, default=None, dest="l_max")
    _add_run_options(p, EB_RESIDUAL_TOL)
    p.set_defaults(func="cmd_properties", roles=("scenario", "cprime"))

    p = sub.add_parser("fixtures", help="write a canonical scenario file")
    p.add_argument("name")
    p.add_argument(
        "--out", required=True, dest="scenario_out", metavar="FILE", help="the scenario file to write"
    )
    # the report envelope goes to stdout, not over the scenario file
    p.set_defaults(func="cmd_fixtures", roles=(), out=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    options = vars(args)
    tolerances = {name: options[name] for name in TOLERANCES if name in options}
    try:
        _check_tolerances(tolerances)
        paths = {role: options[role] for role in args.roles if options[role]}
        loaded = {role: _load_json(path, role) for role, path in paths.items()}
        with warnings.catch_warnings():
            # the report carries the CPTP diagnostics: stderr is for errors only
            warnings.filterwarnings("ignore", "reconstructed map violates CPTP", UserWarning)
            result = globals()[args.func](args, {role: doc for role, (doc, _) in loaded.items()})
        report = {
            "schema": REPORT_SCHEMA,
            "command": args.command,
            "inputs": {
                role: {"path": paths[role], "sha256": sha} for role, (_, sha) in loaded.items()
            },
            "seed": options.get("seed"),
            "tolerances": tolerances,
            "version": __version__,
            "result": to_jsonable(result),
        }
        _emit(dumps(report), args.out)
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
