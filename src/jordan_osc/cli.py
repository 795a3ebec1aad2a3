"""Command line front end.

Subcommands:

* verify   -- run verification suites and write a report (json/csv/text)
* basis    -- print one reduced basis function
* matrices -- print the pairing and Hamiltonian blocks at level n

Exit codes: 0 no check failed (skipped checks do not count), 1 at least one
check failed (the report is still written), 2 usage error, or a float-mode
point whose arithmetic overflows or underflows to a zero divisor (an exact run
skips the float cross-checks that do).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from decimal import Context, Decimal
from fractions import Fraction

from .gaussint import gram_block, h_block
from .model import Params, build_psi
from .verifier import (DEFAULT_NMAX, DEFAULT_TOL, SUITES, Report, check_suites, load_relations, run_suites,
                       suite_cutoffs)
from .weyl import EXACT, FLOAT

ENV_NMAX = "JORDAN_OSC_NMAX"
NMAX_RANGE = (1, 24)
TOL_MAX = 1e-4
FORMATS = ("json", "csv", "text")
#: parameter point for flags left unset, per mode (a = 1, b = 1/4 in both)
PARAM_DEFAULTS = {EXACT: {"p": Fraction(1), "q": Fraction(1, 2)}, FLOAT: {"a": 1.0, "b": 0.25}}


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs for one verify run."""

    mode: str = EXACT
    p: Fraction | None = PARAM_DEFAULTS[EXACT]["p"]
    q: Fraction | None = PARAM_DEFAULTS[EXACT]["q"]
    a: float | None = None
    b: float | None = None
    n_max: int = DEFAULT_NMAX
    tol: float = DEFAULT_TOL
    suites: tuple[str, ...] = SUITES
    fmt: str = "text"
    catalog: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in (EXACT, FLOAT):
            raise ValueError(f"mode must be {EXACT!r} or {FLOAT!r}")
        if not (NMAX_RANGE[0] <= self.n_max <= NMAX_RANGE[1]):
            raise ValueError(f"n_max must lie in [{NMAX_RANGE[0]}, {NMAX_RANGE[1]}]")
        if not (0 < self.tol <= TOL_MAX):
            raise ValueError(f"tol must lie in (0, {TOL_MAX}]")
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be one of {', '.join(FORMATS)}")
        check_suites(self.suites)
        if self.mode == EXACT:
            if self.p is None or self.q is None:
                raise ValueError("exact mode needs rational --p and --q")
        elif self.a is None or self.b is None:
            raise ValueError("float mode needs --a and --b")

    def params(self) -> Params:
        if self.mode == EXACT:
            return Params.exact(self.p, self.q)
        return Params.from_ab(self.a, self.b)

    def params_repr(self) -> dict:
        """The point as a report names it: exact p and q, or the requested
        float a and b with the p = sqrt(a) and q = sqrt(b) the run used (at
        a = 3 the run's a is p^2 = 2.9999999999999996)."""
        if self.mode == EXACT:
            return {"p": str(self.p), "q": str(self.q)}
        params = self.params()
        return {"a": self.a, "b": self.b, "p": params.p, "q": params.q}


@dataclass(frozen=True)
class RunResult:
    params: dict
    mode: str
    n_max: int
    tol: float
    reports: tuple[Report, ...] = field(default_factory=tuple)
    #: suite -> the basis cutoff it ran at (see verifier.suite_cutoffs)
    cutoffs: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """No check failed; a skipped check is not a failure."""
        return not any(r.failed for r in self.reports)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def emit_json(result: RunResult) -> str:
    payload = {
        "params": result.params,
        "mode": result.mode,
        "n_max": result.n_max,
        "tol": result.tol,
        "cutoffs": result.cutoffs,
        "suites": [
            {
                "id": r.relation_id,
                "anchor": r.anchor,
                "status": r.status,
                "residual": r.residual,
                "ms": r.ms,
            }
            for r in result.reports
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def parse_json(text: str) -> RunResult:
    payload = json.loads(text)
    reports = tuple(
        Report(
            relation_id=entry["id"],
            anchor=entry["anchor"],
            mode=payload["mode"],
            passed=entry["status"] == "pass",
            residual=entry["residual"],
            ms=entry["ms"],
            skipped=entry["status"] == "skip",
        )
        for entry in payload["suites"]
    )
    return RunResult(payload["params"], payload["mode"], payload["n_max"], payload["tol"], reports,
                     payload.get("cutoffs", {}))


def _shown(residual: str) -> str:
    """A residual as text and CSV print it: beyond 24 characters, to 6 significant digits."""
    # through decimal, as an exact residual may lie beyond the float range
    num, _, den = residual.partition("/")
    return residual if len(residual) <= 24 else f"{Context(prec=6).divide(Decimal(num), Decimal(den or 1)):.5e}"


def emit_csv(result: RunResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id", "anchor", "status", "residual", "ms"])
    for r in result.reports:
        writer.writerow([r.relation_id, r.anchor, r.status, _shown(r.residual), f"{r.ms:.3f}"])
    return buf.getvalue()


def emit_text(result: RunResult) -> str:
    lines = [
        f"mode={result.mode} params={result.params} n_max={result.n_max} tol={result.tol}",
        "cutoffs: " + " ".join(f"{suite}={'none' if c is None else c}" for suite, c in result.cutoffs.items()),
    ]
    width = max((len(r.relation_id) for r in result.reports), default=0)
    for r in result.reports:
        lines.append(f"{r.status.upper()}  {r.relation_id:<{width}}  residual={_shown(r.residual)}  ({r.ms:.1f} ms)")
    failed = sum(1 for r in result.reports if r.failed)
    skipped = sum(1 for r in result.reports if r.skipped)
    lines.append(f"{len(result.reports)} checks, {failed} failed, {skipped} skipped")
    return "\n".join(lines) + "\n"


EMITTERS = {"json": emit_json, "csv": emit_csv, "text": emit_text}


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT)
    parser.add_argument("--p", type=_fraction, default=None, help="sqrt of a (exact mode), for example 1 or 3/2")
    parser.add_argument("--q", type=_fraction, default=None, help="sqrt of b (exact mode), must be < p for a > b")
    parser.add_argument("--a", type=float, default=None, help="oscillator strength (float mode)")
    parser.add_argument("--b", type=float, default=None, help="coupling strength (float mode)")


def _default_nmax() -> int:
    raw = os.environ.get(ENV_NMAX)
    if raw is None:
        return DEFAULT_NMAX
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_NMAX} must be an integer in [{NMAX_RANGE[0]}, {NMAX_RANGE[1]}], got {raw!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jordan-osc", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites")
    _add_param_flags(verify)
    verify.add_argument("--nmax", type=int, default=None,
                        help=f"basis cutoff, 1..{NMAX_RANGE[1]} (default: ${ENV_NMAX} or {DEFAULT_NMAX})")
    verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    verify.add_argument("--suites", default="all",
                        help="comma list from: " + ",".join(SUITES) + " (or 'all')")
    verify.add_argument("--out", default=None, help="write the report here instead of stdout")
    verify.add_argument("--format", dest="fmt", choices=FORMATS, default="text")
    verify.add_argument("--catalog", default=None, help="alternate relation catalog file")

    basis = sub.add_parser("basis", help="print one reduced basis function")
    _add_param_flags(basis)
    basis.add_argument("--n", type=int, required=True)
    basis.add_argument("--m", type=int, required=True)

    matrices = sub.add_parser("matrices", help="print pairing and Hamiltonian blocks")
    _add_param_flags(matrices)
    matrices.add_argument("--n", type=int, required=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Config of any subcommand; unset parameter flags take PARAM_DEFAULTS, and
    a parameter flag of the other mode is an error, not silently ignored."""
    foreign = [f"--{name}" for mode, names in PARAM_DEFAULTS.items() if mode != args.mode
               for name in names if getattr(args, name) is not None]
    if foreign:
        own = " and ".join(f"--{name}" for name in PARAM_DEFAULTS[args.mode])
        raise ValueError(f"{', '.join(foreign)} not valid in {args.mode} mode, which takes {own}")
    point = {
        name: default if getattr(args, name) is None else getattr(args, name)
        for name, default in PARAM_DEFAULTS[args.mode].items()
    }
    if args.command != "verify":
        return RunConfig(mode=args.mode, **point)
    suites = SUITES if args.suites == "all" else tuple(s.strip() for s in args.suites.split(","))
    n_max = args.nmax if args.nmax is not None else _default_nmax()
    return RunConfig(mode=args.mode, **point, n_max=n_max,
                     tol=args.tol, suites=suites, fmt=args.fmt, catalog=args.catalog)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _run_verify(args: argparse.Namespace) -> int:
    try:
        config = _config_from_args(args)
        params = config.params()
        # parsed once, before any suite runs, so a bad catalog costs no run
        relations = None if config.catalog is None else load_relations(config.catalog)
        if args.out is not None:
            # opened before any suite runs, so an unwritable path costs no run;
            # appending keeps an earlier report until this one is written
            open(args.out, "a", encoding="utf-8").close()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = run_suites(params, config.suites, config.n_max, config.tol, relations)
    result = RunResult(config.params_repr(), config.mode, config.n_max, config.tol, tuple(reports),
                       suite_cutoffs(config.suites, config.n_max))
    rendered = EMITTERS[config.fmt](result)
    if args.out is None:
        sys.stdout.write(rendered)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        failed = sum(1 for r in reports if r.failed)
        print(f"wrote {len(reports)} check results to {args.out} ({failed} failed)")
    return 0 if result.passed else 1


def _run_basis(args: argparse.Namespace) -> int:
    try:
        params = _config_from_args(args).params()
        if not (0 <= args.m <= args.n):
            raise ValueError("need 0 <= m <= n")
        fn = build_psi(params, args.n, args.m)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"psi[{args.n},{args.m}] = kappa * P(z, zbar) * exp(-a*z*zbar - b*zbar^2)")
    print("kappa = sqrt(2a/pi); the reduced polynomial P is")
    for (i, j), coeff in fn.sorted_terms():
        print(f"  z^{i} zbar^{j}: {coeff}")
    return 0


def _run_matrices(args: argparse.Namespace) -> int:
    try:
        params = _config_from_args(args).params()
        if args.n < 0 or args.n > NMAX_RANGE[1]:
            raise ValueError(f"need 0 <= n <= {NMAX_RANGE[1]}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    gram = gram_block(params, args.n)
    ham = h_block(params, args.n)
    print(f"pairing block <<psi[{args.n},k] | psi[{args.n},m]>>, rows k = 0..{args.n}:")
    for row in gram:
        print("  [" + ", ".join(map(str, row)) + "]")
    print(f"Hamiltonian block <<psi[{args.n},n-k] | H psi[{args.n},m]>>, rows k = 0..{args.n}:")
    for row in ham:
        print("  [" + ", ".join(map(str, row)) + "]")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"verify": _run_verify, "basis": _run_basis, "matrices": _run_matrices}[args.command]
    try:
        return handler(args)
    except (OverflowError, ZeroDivisionError) as exc:
        # only floats overflow, or divide by a product that underflows to 0
        # (an exact run skips its float cross-checks that do, see verifier),
        # and the exception's own text can be a raw errno tuple (from pow),
        # so a plain reason is printed instead
        if isinstance(exc, ZeroDivisionError) and args.mode == EXACT:
            raise
        print(f"error: float arithmetic leaves the float range at {_config_from_args(args).params_repr()} "
              "(a value overflows, or underflows to a zero divisor)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
