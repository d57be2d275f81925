"""Command-line front-end: subcommands ct, lct, brieskorn, sweep, batch and
verify, each taking only the options build_parser gives it.

All numeric output is exact fractions; JSON mode writes each one as a
num/den object (fraction_to_json) and is byte-stable across runs.

Exit codes: 0 success / certification holds, 1 parse error or bad
arguments (including an option the subcommand does not take or would
ignore, a search cap below 2, and a batch line in error), 2 unit at the
origin, 3 search bound exceeded (sweep: by a triple, with no violation;
batch: by a line, with none in error), 4 assertion or verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass
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
    _check_cap,
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


def _resolve_max_bound(args) -> int | None:
    """--max-bound, else $THRESHOLDKIT_MAX_BOUND, else None (ct_diagram's
    default); a given cap is checked here, once, before any search runs."""
    value = args.max_bound
    env = os.environ.get(ENV_MAX_BOUND)
    if value is None and env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{ENV_MAX_BOUND} must be an integer, got {env!r}") from None
    return None if value is None else _check_cap(value, "max_bound")


def _load_diagram(source: str, variables: Sequence[str] | None) -> NewtonDiagram:
    """A positional input names either a diagram JSON file, whose text
    diagram_from_json decodes, or polynomial text."""
    if os.path.isfile(source):
        if variables is not None:
            raise ValueError("--vars applies to polynomial text, not to a diagram file")
        with open(source, "r", encoding="utf-8") as fh:
            return diagram_from_json(fh.read())
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
    # imported here: the pool pulls in multiprocessing, which a serial run never needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=chunksize))


def _split_vars(names: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in names.split(",") if name.strip())


# ---------------------------------------------------------------------------
# ct / lct
# ---------------------------------------------------------------------------

def _cmd_ct(args) -> int:
    if args.brute is not None and args.max_bound is not None:
        raise ValueError("--max-bound does not apply with --brute, whose cap bounds the box")
    diagram = _load_diagram(args.input, args.vars)
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
    diagram = _load_diagram(args.input, args.vars)
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
        out["s_values"] = {name: fraction_to_json(v) if isinstance(v, Fraction) else v
                           for name, v in asdict(result.s_values).items()}  # in field order
    return out


def _engine_brieskorn(a: int, b: int, c: int, max_bound: int | None) -> Fraction | None:
    """ct_diagram's value for x^a + y^b + z^c; None if it exceeded the bound."""
    report = ct_diagram(from_points([(a, 0, 0), (0, b, 0), (0, 0, c)], 3), max_bound=max_bound)
    return report.value if report.status == STATUS_COMPLETE else None


def _cmd_brieskorn(args) -> int:
    if args.max_bound is not None and not args.verify:
        raise ValueError("--max-bound applies only with --verify")
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
    """One triple of the sweep: the closed form, the lct formula's value and
    ct_diagram's value, which is None when the search hit its cap."""

    triple: tuple[int, int, int]
    closed: BrieskornResult
    lct: Fraction
    engine: Fraction | None

    def csv_row(self) -> list:
        ct = self.closed.value
        return [
            *self.triple,
            ct.numerator, ct.denominator,
            self.closed.case,
            *self.closed.weight,
            self.lct.numerator, self.lct.denominator,
            "true" if self.engine == ct else "false",
        ]


def _sweep_triple(job: tuple[int, int, int, int | None]) -> SweepRecord:
    a, b, c, max_bound = job
    return SweepRecord(
        triple=(a, b, c),
        closed=brieskorn_threshold(a, b, c),
        lct=lct_brieskorn([a, b, c]),
        engine=_engine_brieskorn(a, b, c, max_bound),
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


def check_sweep(records: Iterable[SweepRecord]) -> tuple[list[str], list[tuple], set[Fraction]]:
    """Gap assertions; returns (violations, capped triples, distinct values in [4/5, 1])."""
    violations, capped, upper = [], [], set()
    lower, mid = Fraction(4, 5), Fraction(5, 6)
    allowed = {lower, mid, Fraction(1)}
    for rec in records:
        ct = rec.closed.value
        if rec.engine is None:
            capped.append(rec.triple)
        elif rec.engine != ct:
            violations.append(f"{rec.triple}: closed form {ct} != engine value")
        if lower <= ct <= 1:
            upper.add(ct)
            if ct not in allowed:
                violations.append(f"{rec.triple}: value {ct} falls in the forbidden gap")
        if rec.lct < ct:
            violations.append(f"{rec.triple}: lct {rec.lct} below ct {ct}")
    return violations, capped, upper


def _cmd_sweep(args) -> int:
    records = sweep_records(args.max, max_bound=_resolve_max_bound(args),
                            parallel=args.parallel)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for rec in records:
        writer.writerow(rec.csv_row())
    violations, capped, upper = check_sweep(records)
    observed = ", ".join(str(v) for v in sorted(upper)) or "none"
    print(
        f"sweep: {len(records)} triples, {len(violations)} violations; "
        f"values in [4/5, 1]: {observed}",
        file=sys.stderr,
    )
    for v in violations:
        print(f"sweep violation: {v}", file=sys.stderr)
    for triple in capped:
        print(f"sweep: engine search bound exceeded for {triple}", file=sys.stderr)
    return EXIT_MISMATCH if violations else EXIT_BOUND if capped else EXIT_OK


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def _batch_line(job: tuple[str, int | None]) -> dict:
    line, max_bound = job
    try:
        obj = json.loads(line)
    except ValueError as exc:
        return {"error": f"invalid JSON: {exc}"}
    except RecursionError:
        return {"error": "invalid JSON: nested too deeply"}
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
    if any("error" in r for r in results):
        return EXIT_PARSE
    return EXIT_BOUND if any(r["status"] != STATUS_COMPLETE for r in results) else EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a fraction: {text!r}") from None


def _cmd_verify(args) -> int:
    diagram = _load_diagram(args.input, args.vars)
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

def _positive_int(text: str, floor: int = 1) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < floor:
        raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
    return value


_OPTIONS = {
    "--json": dict(action="store_true", help="emit JSON"),
    "--max-bound": dict(type=int, default=None,
                        help=f"search cap on |w|_1 (default {DEFAULT_MAX_BOUND}, "
                             f"or ${ENV_MAX_BOUND})"),
    "--parallel": dict(type=_positive_int, default=None, metavar="N",
                       help="at most N worker processes, one per job and per CPU"),
    "--vars": dict(type=_split_vars, default=None, help="comma-separated variable names, e.g. x,y"),
}


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="thresholdkit")
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
    p_sweep.add_argument("max", type=lambda text: _positive_int(text, floor=2))
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
        return EXIT_PARSE if exc.code else EXIT_OK
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
