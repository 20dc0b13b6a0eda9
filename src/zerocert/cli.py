"""Command-line interface and certificate JSON serialization.

Exit codes: 0 ZeroGuaranteed / success, 2 NoConclusion, 3 ZeroOnBoundary,
4 input error, 5 internal error or exhausted budget, 141 stdout closed by
its reader before the output was written.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .criteria import Certificate, CheckResult, certify_existence
from .degree import winding_number
from .errors import (DomainError, InvalidInput, MapSyntaxError, Unsupported,
                     VanishingOnBoundary, ZeroCertError)
from .geometry import Region, sample_sphere
from .homotopy import SampledMap, straight_line
from .locator import brouwer_fixed_point, locate_zero
from .mapspec import (BUILTIN_MAPS, MapSpec, builtin_map, lipschitz_estimate,
                      parse_map)

EXIT_OK = 0
EXIT_NO_CONCLUSION = 2
EXIT_ZERO_ON_BOUNDARY = 3
EXIT_INPUT = 4
EXIT_INTERNAL = 5
EXIT_BROKEN_PIPE = 141          # 128 + SIGPIPE, as a shell reports a pipe
                                # reader that quit early


# ---------------------------------------------------------------------------
# certificate serialization

def region_to_dict(region: Region) -> dict:
    if region.kind == "disk":
        return {"kind": "disk", "dim": region.dim,
                "center": [float(v) for v in region.center],
                "radius": float(region.radius)}
    return {"kind": "box", "dim": region.dim,
            "lower": [float(v) for v in region.lower],
            "upper": [float(v) for v in region.upper]}


def region_from_dict(d: dict) -> Region:
    if d["kind"] == "disk":
        return Region.disk(d["center"], d["radius"])
    return Region.box(d["lower"], d["upper"])


def check_to_dict(check: CheckResult) -> dict:
    return {"check": check.name, "passed": check.passed,
            "margin": float(check.margin),
            "witness": None if check.witness is None
            else [float(v) for v in np.atleast_1d(check.witness)],
            "rigor": check.rigor, "threshold": float(check.threshold)}


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "map_digest": cert.map_digest,
        "region": region_to_dict(cert.region),
        "verdict": cert.verdict,
        "route": cert.route,
        "obstruction": cert.obstruction,
        "min_boundary_norm": float(cert.min_boundary_norm),
        "rigor": cert.rigor,
        "evidence": [check_to_dict(c) for c in cert.evidence],
        "extension_witness_present": cert.extension_witness is not None,
    }


def certificate_dumps(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2)


def certificate_from_dict(d: dict) -> Certificate:
    evidence = [CheckResult(name=c["check"], passed=c["passed"],
                            margin=c["margin"],
                            witness=None if c["witness"] is None
                            else np.asarray(c["witness"]),
                            rigor=c["rigor"], threshold=c["threshold"])
                for c in d["evidence"]]
    return Certificate(map_digest=d["map_digest"],
                       region=region_from_dict(d["region"]),
                       verdict=d["verdict"], route=d["route"],
                       obstruction=d["obstruction"],
                       min_boundary_norm=d["min_boundary_norm"],
                       rigor=d["rigor"], evidence=evidence)


# ---------------------------------------------------------------------------
# argument handling

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which collides with the
    # NoConclusion exit code; raise instead and map to 4
    def error(self, message):
        raise InvalidInput(message)


def _load_map(text: str, n: int) -> MapSpec:
    if text in BUILTIN_MAPS:
        spec = builtin_map(text)
        if spec.n != n:
            raise InvalidInput(f"builtin map {text!r} has n={spec.n}, not {n}")
        return spec
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_map(text, n)


def _csv_floats(text: str):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise InvalidInput(f"expected comma-separated numbers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zerocert",
                     description="Zero-existence certificates and root "
                                 "localization for maps on disks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="certify zero existence on a disk")
    p.add_argument("--map", required=True,
                   help="map text, @file or a builtin map name")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--center", required=True, help="CSV center coordinates")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--level", type=int, default=None,
                   help="sphere mesh level (default 6 for n <= 2, 2 for n >= 3)")
    p.add_argument("--lipschitz", default=None,
                   help="Lipschitz constant, or 'auto' for a heuristic estimate")
    p.add_argument("--out", default=None, help="write the certificate JSON here")

    p = sub.add_parser("locate", help="locate a zero inside a box")
    p.add_argument("--map", required=True)
    p.add_argument("--box", required=True,
                   help="CSV bounds lo1,hi1[,lo2,hi2]")
    p.add_argument("--eps-x", type=float, default=1e-6)
    p.add_argument("--eps-f", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=100)

    p = sub.add_parser("winding", help="winding number of a planar map on S^1")
    p.add_argument("--map", required=True)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--budget", type=int, default=4096)

    p = sub.add_parser("fixed-point", help="fixed point of a disk self-map")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--eps", type=float, default=1e-6)

    p = sub.add_parser("homotopy",
                       help="straight-line homotopy validity between two maps")
    p.add_argument("--from", dest="source", required=True, metavar="MAP")
    p.add_argument("--to", dest="target", required=True, metavar="MAP")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--t-steps", type=int, default=64)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--lipschitz", type=float, default=None)

    sub.add_parser("examples", help="list builtin maps")
    return parser


# ---------------------------------------------------------------------------
# subcommands

def _cmd_certify(args) -> int:
    spec = _load_map(args.map, args.n)
    region = Region.disk(_csv_floats(args.center), args.radius)
    auto = args.lipschitz == "auto"
    lipschitz = None
    if auto:
        lipschitz = lipschitz_estimate(spec, region)
    elif args.lipschitz is not None:
        try:
            lipschitz = float(args.lipschitz)
        except ValueError:
            raise InvalidInput("--lipschitz expects a number or 'auto', "
                               f"got {args.lipschitz!r}") from None
    cert = certify_existence(spec, region, level=args.level,
                             lipschitz=lipschitz)
    if auto:
        # an estimated constant cannot ground a rigorous claim, so the
        # estimate is fed through but the certificate stays heuristic
        cert.rigor = "heuristic"
        cert.evidence = [dataclasses.replace(c, rigor="heuristic")
                         for c in cert.evidence]
    text = certificate_dumps(cert)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return {"ZeroGuaranteed": EXIT_OK,
            "NoConclusion": EXIT_NO_CONCLUSION,
            "ZeroOnBoundary": EXIT_ZERO_ON_BOUNDARY}[cert.verdict]


def _cmd_locate(args) -> int:
    bounds = _csv_floats(args.box)
    if len(bounds) % 2 != 0:
        raise InvalidInput("box needs an even number of bounds")
    n = len(bounds) // 2
    lower = bounds[0::2]
    upper = bounds[1::2]
    spec = _load_map(args.map, n)
    box = Region.box(lower, upper)
    result = locate_zero(spec, box, eps_x=args.eps_x, eps_f=args.eps_f,
                         max_iter=args.max_iter)
    print(json.dumps({
        "point": [float(v) for v in result.point],
        "residual": result.residual,
        "cell_diameter": result.cell_diameter,
        "iterations": result.iterations,
        "termination": result.termination,
    }, indent=2))
    return EXIT_OK


def _cmd_winding(args) -> int:
    spec = _load_map(args.map, 2)
    sampling = sample_sphere(Region.disk([0.0, 0.0], 1.0), args.level)
    f = SampledMap.from_evaluator(spec, sampling)
    result = winding_number(f, refine_budget=args.budget)
    print(result.value)
    return EXIT_OK


def _cmd_fixed_point(args) -> int:
    spec = _load_map(args.map, args.n)
    result = brouwer_fixed_point(spec, eps=args.eps)
    print(json.dumps({
        "point": [float(v) for v in result.point],
        "residual": result.residual,
        "iterations": result.iterations,
        "termination": result.termination,
    }, indent=2))
    return EXIT_OK


def _cmd_homotopy(args) -> int:
    source = _load_map(args.source, args.n)
    target = _load_map(args.target, args.n)
    if source.m != target.m:
        raise InvalidInput("maps have different codomain dimensions")
    sampling = sample_sphere(Region.disk(np.zeros(args.n), 1.0), args.level)
    f = SampledMap.from_evaluator(source, sampling)
    g = SampledMap.from_evaluator(target, sampling)
    trace, report = straight_line(f, g, t_steps=args.t_steps, L=args.lipschitz)
    witness = None
    if report.witness is not None:
        p_idx, t_idx = report.witness
        witness = {"point": [float(v) for v in sampling.points[p_idx]],
                   "t": float(trace.t_grid[t_idx])}
    print(json.dumps({
        "valid": report.valid,
        "min_norm": report.min_norm,
        "rigor": report.rigor,
        "witness": witness,
    }, indent=2))
    return EXIT_OK if report.valid else EXIT_NO_CONCLUSION


def _cmd_examples(_args) -> int:
    for name, (text, n, description) in BUILTIN_MAPS.items():
        print(f"{name:15s} n={n}  {text:30s} {description}")
    return EXIT_OK


_COMMANDS = {
    "certify": _cmd_certify,
    "locate": _cmd_locate,
    "winding": _cmd_winding,
    "fixed-point": _cmd_fixed_point,
    "homotopy": _cmd_homotopy,
    "examples": _cmd_examples,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is left to /dev/null so the
        # interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (InvalidInput, MapSyntaxError, DomainError, Unsupported,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except VanishingOnBoundary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ZERO_ON_BOUNDARY
    except ZeroCertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
