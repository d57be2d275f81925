"""Command-line front-end.  Each subcommand takes only these options:

    ct INPUT         --json --max-bound N --vars NAMES --brute CAP
    lct INPUT        --json --vars NAMES
    brieskorn A B C  --json --max-bound N --verify
    sweep MAX        --max-bound N --parallel N
    batch FILE       --max-bound N --parallel N --out PATH
    verify INPUT P/Q --json --max-bound N --vars NAMES

All numeric output is exact fractions; JSON mode writes each one as a
num/den object (fraction_to_json) and is byte-stable across runs.

Exit codes: 0 success / certification holds, 1 parse error or bad
arguments (including an option the subcommand does not take), 2 unit at
the origin, 3 search bound exceeded, 4 assertion or verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .lattice import ParseError, fraction_to_json, parse_polynomial
from .newton import NewtonDiagram, from_support, from_points, diagram_from_json
from .engine import (
    DEFAULT_MAX_BOUND,
    STATUS_COMPLETE,
    SearchBoundExceededError,
    ThresholdReport,
    UnitAtOriginError,
    certify,
    ct_bruteforce,
    ct_diagram,
    lct_diagram,
)
from .brieskorn import BrieskornResult, brieskorn_threshold, lct_brieskorn

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_UNIT = 2
EXIT_BOUND = 3
EXIT_MISMATCH = 4

ENV_MAX_BOUND = "THRESHOLDKIT_MAX_BOUND"

SWEEP_COLUMNS = ["a", "b", "c", "ct_num", "ct_den", "case",
                 "w1", "w2", "w3", "lct_num", "lct_den", "agrees"]


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on bad input by default; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _resolve_max_bound(args) -> int | None:
    """--max-bound, else $THRESHOLDKIT_MAX_BOUND, else None (ct_diagram's default)."""
    if args.max_bound is not None:
        return args.max_bound
    env = os.environ.get(ENV_MAX_BOUND)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_MAX_BOUND} must be an integer, got {env!r}") from None
    return None


def _load_diagram(source: str, variables: Sequence[str] | None) -> NewtonDiagram:
    """A positional input names either a diagram JSON file or polynomial text."""
    if os.path.isfile(source):
        with open(source, "r", encoding="utf-8") as fh:
            return diagram_from_json(json.load(fh))
    return from_support(parse_polynomial(source, variables=variables))


def _vector_text(w: Sequence[int]) -> str:
    return "(" + ",".join(map(str, w)) + ")"


def _report_text(report: ThresholdReport) -> str:
    lines = [
        f"value: {report.value}",
        f"clamped: {'yes' if report.clamped else 'no'}",
        "witnesses: " + (" ".join(map(_vector_text, report.witnesses)) or "none"),
        f"relaxation: {report.relaxation}",
        f"search bound: {report.search_bound}",
        f"nodes: {report.nodes}",
        f"status: {report.status}",
    ]
    return "\n".join(lines)


def _map(fn, jobs: list, parallel: int | None, chunksize: int = 1) -> list:
    """fn over jobs, in order: serially, or in a process pool with at most
    one worker per job and per CPU when that allows two or more."""
    workers = min(parallel or 1, len(jobs), os.cpu_count() or 1)
    if workers < 2:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=chunksize))


def _split_vars(names: str | None) -> tuple[str, ...] | None:
    if names is None:
        return None
    return tuple(name.strip() for name in names.split(",") if name.strip())


# ---------------------------------------------------------------------------
# ct / lct
# ---------------------------------------------------------------------------

def _cmd_ct(args) -> int:
    diagram = _load_diagram(args.input, _split_vars(args.vars))
    if args.brute is not None:
        report = ct_bruteforce(diagram, args.brute)
    else:
        report = ct_diagram(diagram, max_bound=_resolve_max_bound(args))
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(_report_text(report))
    return EXIT_OK if report.status == STATUS_COMPLETE else EXIT_BOUND


def _cmd_lct(args) -> int:
    diagram = _load_diagram(args.input, _split_vars(args.vars))
    value = lct_diagram(diagram)
    if args.json:
        print(json.dumps({"value": fraction_to_json(value)}))
    else:
        print(value)
    return EXIT_OK


# ---------------------------------------------------------------------------
# brieskorn
# ---------------------------------------------------------------------------

def _brieskorn_json(result: BrieskornResult, lct: Fraction) -> dict:
    out = {
        "value": fraction_to_json(result.value),
        "case": result.case,
        "weight": list(result.weight),
        "lct": fraction_to_json(lct),
    }
    if result.s_values is not None:
        sv = result.s_values
        out["s_values"] = {
            "s1": fraction_to_json(sv.s1),
            "s2": fraction_to_json(sv.s2),
            "s3": fraction_to_json(sv.s3),
            "k1": sv.k1,
            "k2": sv.k2,
        }
    return out


def _engine_brieskorn(a: int, b: int, c: int, max_bound: int | None) -> Fraction | None:
    """ct_diagram's value for x^a + y^b + z^c; None if it exceeded the bound."""
    report = ct_diagram(from_points([(a, 0, 0), (0, b, 0), (0, 0, c)], 3), max_bound=max_bound)
    return report.value if report.status == STATUS_COMPLETE else None


def _cmd_brieskorn(args) -> int:
    result = brieskorn_threshold(args.a, args.b, args.c)
    lct = lct_brieskorn([args.a, args.b, args.c])

    if args.verify:
        engine = _engine_brieskorn(args.a, args.b, args.c, _resolve_max_bound(args))
        if engine is None:
            print("brieskorn: engine search bound exceeded during --verify", file=sys.stderr)
            return EXIT_BOUND
        if engine != result.value:
            print(f"brieskorn: closed form {result.value} disagrees with engine {engine}",
                  file=sys.stderr)
            return EXIT_MISMATCH

    if args.json:
        print(json.dumps(_brieskorn_json(result, lct)))
    else:
        lines = [
            f"value: {result.value}",
            f"case: {result.case}",
            f"weight: {_vector_text(result.weight)}",
        ]
        if result.s_values is not None:
            sv = result.s_values
            lines.append(
                f"s-values: s1={sv.s1} (k1={sv.k1}), "
                f"s2={sv.s2} (k2={sv.k2}), s3={sv.s3}"
            )
        lines.append(f"lct: {lct}")
        print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRecord:
    triple: tuple[int, int, int]
    ct: Fraction
    case: str
    weight: tuple[int, int, int]
    lct: Fraction
    engine_agrees: bool

    def csv_row(self) -> list:
        a, b, c = self.triple
        return [
            a, b, c,
            self.ct.numerator, self.ct.denominator,
            self.case,
            self.weight[0], self.weight[1], self.weight[2],
            self.lct.numerator, self.lct.denominator,
            "true" if self.engine_agrees else "false",
        ]


def _sweep_triple(job: tuple[int, int, int, int | None]) -> SweepRecord:
    a, b, c, max_bound = job
    closed = brieskorn_threshold(a, b, c)
    return SweepRecord(
        triple=(a, b, c),
        ct=closed.value,
        case=closed.case,
        weight=closed.weight,
        lct=lct_brieskorn([a, b, c]),
        engine_agrees=_engine_brieskorn(a, b, c, max_bound) == closed.value,
    )


def sweep_records(max_exponent: int, max_bound: int | None = None,
                  parallel: int | None = None) -> list[SweepRecord]:
    """One record per triple 2 <= a <= b <= c <= max_exponent, in order."""
    jobs = [
        (a, b, c, max_bound)
        for a in range(2, max_exponent + 1)
        for b in range(a, max_exponent + 1)
        for c in range(b, max_exponent + 1)
    ]
    return _map(_sweep_triple, jobs, parallel, chunksize=64)


def check_sweep(records: Iterable[SweepRecord]) -> tuple[list[str], set[Fraction]]:
    """Gap assertions; returns (violations, distinct values in [4/5, 1])."""
    violations = []
    upper = set()
    lower, mid = Fraction(4, 5), Fraction(5, 6)
    allowed = {lower, mid, Fraction(1)}
    for rec in records:
        if not rec.engine_agrees:
            violations.append(f"{rec.triple}: closed form {rec.ct} != engine value")
        if lower <= rec.ct <= 1:
            upper.add(rec.ct)
            if rec.ct not in allowed:
                violations.append(f"{rec.triple}: value {rec.ct} falls in the forbidden gap")
        if rec.lct < rec.ct:
            violations.append(f"{rec.triple}: lct {rec.lct} below ct {rec.ct}")
    return violations, upper


def _cmd_sweep(args) -> int:
    if args.max < 2:
        print("sweep: max must be >= 2", file=sys.stderr)
        return EXIT_PARSE
    records = sweep_records(args.max, max_bound=_resolve_max_bound(args),
                            parallel=args.parallel)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for rec in records:
        writer.writerow(rec.csv_row())
    violations, upper = check_sweep(records)
    observed = ", ".join(str(v) for v in sorted(upper)) or "none"
    print(
        f"sweep: {len(records)} triples, {len(violations)} violations; "
        f"values in [4/5, 1]: {observed}",
        file=sys.stderr,
    )
    for v in violations:
        print(f"sweep violation: {v}", file=sys.stderr)
    return EXIT_MISMATCH if violations else EXIT_OK


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def _batch_line(job: tuple[str, int | None]) -> dict:
    line, max_bound = job
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        return {"error": f"invalid JSON: {exc}"}
    try:
        if isinstance(obj, str):
            diagram = from_support(parse_polynomial(obj))
        elif isinstance(obj, dict):
            diagram = diagram_from_json(obj)
        else:
            return {"error": "line must be a polynomial string or a diagram object"}
        report = ct_diagram(diagram, max_bound=max_bound)
        return report.to_json_dict()
    except ValueError as exc:  # parse, shape, dimension and unit errors alike
        return {"error": str(exc)}


def _cmd_batch(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    bound = _resolve_max_bound(args)
    jobs = [(line, bound) for line in lines]
    results = _map(_batch_line, jobs, args.parallel)

    payload = "".join(json.dumps(r) + "\n" for r in results)
    if args.out:
        directory = os.path.dirname(os.path.abspath(args.out))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".batch-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, args.out)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    else:
        sys.stdout.write(payload)
    failed = any("error" in r for r in results)
    return EXIT_PARSE if failed else EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a fraction: {text!r}") from None


def _cmd_verify(args) -> int:
    diagram = _load_diagram(args.input, _split_vars(args.vars))
    c = _parse_fraction(args.threshold)
    cert = certify(diagram, c, max_bound=_resolve_max_bound(args))
    if args.json:
        out = {
            "certified": cert.ok,
            "threshold": fraction_to_json(c),
            "witness": list(cert.witness) if cert.witness else None,
            "computed": cert.report.to_json_dict(),
        }
        print(json.dumps(out))
    elif cert.ok:
        print(f"certified: {c} realized by {_vector_text(cert.witness)}")
    elif cert.report.value < c and cert.report.witnesses:
        violator = _vector_text(cert.report.witnesses[0])
        print(f"not certified: {violator} gives {cert.report.value} < {c}")
    else:
        print(f"not certified: threshold is {cert.report.value}"
              f"{' (clamped)' if cert.report.clamped else ''}, not {c}")
    return EXIT_OK if cert.ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_OPTIONS = {
    "--json": dict(action="store_true", help="emit JSON"),
    "--max-bound": dict(type=int, default=None,
                        help=f"search cap on |w|_1 (default {DEFAULT_MAX_BOUND}, "
                             f"or ${ENV_MAX_BOUND})"),
    "--parallel": dict(type=_positive_int, default=None, metavar="N",
                       help="at most N worker processes, one per job and per CPU"),
    "--vars": dict(default=None, help="comma-separated variable names, e.g. x,y"),
}


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="thresholdkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ct = sub.add_parser("ct", help="threshold of a polynomial or diagram file")
    p_ct.add_argument("input", help="polynomial text or diagram JSON file")
    p_ct.add_argument("--brute", type=int, default=None, metavar="CAP",
                      help="use the box-enumeration oracle with this cap")
    _add_options(p_ct, "--json", "--max-bound", "--vars")
    p_ct.set_defaults(func=_cmd_ct)

    p_lct = sub.add_parser("lct", help="log-canonical threshold (LP relaxation)")
    p_lct.add_argument("input", help="polynomial text or diagram JSON file")
    _add_options(p_lct, "--json", "--vars")
    p_lct.set_defaults(func=_cmd_lct)

    p_bk = sub.add_parser("brieskorn", help="closed form for x^a + y^b + z^c")
    p_bk.add_argument("a", type=int)
    p_bk.add_argument("b", type=int)
    p_bk.add_argument("c", type=int)
    p_bk.add_argument("--verify", action="store_true",
                      help="also run the search engine and require agreement")
    _add_options(p_bk, "--json", "--max-bound")
    p_bk.set_defaults(func=_cmd_brieskorn)

    p_sweep = sub.add_parser("sweep", help="CSV over all triples up to a bound")
    p_sweep.add_argument("max", type=int)
    _add_options(p_sweep, "--max-bound", "--parallel")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_batch = sub.add_parser("batch", help="JSON-lines batch evaluation")
    p_batch.add_argument("file")
    p_batch.add_argument("--out", default=None, help="write results to this file atomically")
    _add_options(p_batch, "--max-bound", "--parallel")
    p_batch.set_defaults(func=_cmd_batch)

    p_verify = sub.add_parser("verify", help="certify a candidate threshold")
    p_verify.add_argument("input", help="polynomial text or diagram JSON file")
    p_verify.add_argument("threshold", help="candidate value as p/q")
    _add_options(p_verify, "--json", "--max-bound", "--vars")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnitAtOriginError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNIT
    except SearchBoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AssertionError as exc:  # an engine invariant failed
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    raise SystemExit(main())
