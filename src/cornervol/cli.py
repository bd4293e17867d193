"""Command-line front door: compute, verify, generate, and report.

Every command is a pure function of its flags and input files; seeded runs
produce byte-identical reports.  All printed numbers are exact rational
strings (an optional approximation column in CSV is clearly marked).

Exit codes: 0 all checks pass; 1 a verified inequality was violated (a
would-be counterexample, i.e. an engine bug worth reporting); 2 parse or
configuration failure; 3 requested method inapplicable to the input class;
4 cross-check disagreement between independent computation paths; 5 internal
error (a failed engine self-check, or a generated assembly that failed
validation), never a verdict on the inequality.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import io as cio
from .antiblocking import AntiBlockingBody, ab_join_volume, ab_opposite_mixed
from .assembly import (
    EngineDisagreementError,
    AssemblyError,
    OrthantAssembly,
    equality_family,
    from_unconditional,
    godbersen_check,
    proof_chain_audit,
    random_assembly,
)
from .geometry import (
    DimensionCapError,
    cap_dim,
    join_hull,
    negate,
    standard_simplex,
    unit_cube,
    volume,
)
from .mixed import mixed_volume_pair, volume_polynomial_by_probes
from .simplex import AlignedSimplex, corollary_mixed_volume, lemma_mixed_volume

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_INAPPLICABLE = 3
EXIT_MISMATCH = 4
EXIT_INTERNAL = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def trial_rng(seed: int, trial: int) -> random.Random:
    # String seeding keeps the stream stable across platforms and runs.
    return random.Random(f"{seed}:{trial}")


@dataclass
class SweepReport:
    command: str
    config: dict
    records: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def finalize(self) -> None:
        ratios = [Fraction(r["ratio"]) for r in self.records]
        holds = [r["holds"] for r in self.records]
        self.summary = {
            "records": len(self.records),
            "violations": sum(1 for h in holds if not h),
            "equalities": sum(1 for r in self.records if r.get("is_equality")),
            "min_ratio": cio.format_rational(min(ratios)) if ratios else None,
            "max_ratio": cio.format_rational(max(ratios)) if ratios else None,
        }

    def to_text(self, fmt: str, approx: bool) -> str:
        if fmt == "json":
            return cio.dumps(
                {"command": self.command, "config": self.config,
                 "records": self.records, "summary": self.summary}
            )
        cols: list[str] = []
        for rec in self.records:
            for key in rec:
                if key not in cols:
                    cols.append(key)
        lines = []
        header = list(cols)
        if approx:
            header += [f"approx_{c}" for c in ("lhs", "rhs", "ratio") if c in cols]
        lines.append(",".join(header))
        for rec in self.records:
            row = [_csv_cell(rec.get(c)) for c in cols]
            if approx:
                for c in ("lhs", "rhs", "ratio"):
                    if c in cols:
                        v = rec.get(c)
                        row.append("" if v in (None, "") else repr(float(Fraction(v))))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _rat(x: Fraction) -> str:
    return cio.format_rational(x)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(EXIT_PARSE, f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# mixvol

def cmd_mixvol(args) -> int:
    k = cio.polytope_from_obj(cio.load_json_file(args.k_file))
    t = cio.polytope_from_obj(cio.load_json_file(args.t_file))
    if k.dim != t.dim:
        raise CliError(EXIT_PARSE, "input polytopes have different dimensions")
    j = args.j
    if not 0 <= j <= k.dim:
        raise CliError(EXIT_PARSE, f"j must lie in 0..{k.dim}")

    def by_cayley() -> Fraction:
        return mixed_volume_pair(k, t, j)

    def by_interpolation() -> Fraction:
        return volume_polynomial_by_probes(k, t).mixed(j)

    def by_decomposition() -> Fraction:
        try:
            kb = AntiBlockingBody(k)
            tb = AntiBlockingBody(negate(t))
        except ValueError as exc:
            raise CliError(
                EXIT_INAPPLICABLE,
                "decomposition needs an anti-blocking K and a T whose negation "
                f"is anti-blocking: {exc}",
            ) from exc
        return ab_opposite_mixed(kb, tb, j)

    def by_closed_form() -> Fraction:
        sk = AlignedSimplex.recognize(k)
        st = AlignedSimplex.recognize(t)
        if sk is None or st is None:
            raise CliError(
                EXIT_INAPPLICABLE,
                "closed-form needs both bodies to be axis-aligned simplices "
                "conv(0, a_i e_i) in the positive orthant",
            )
        return corollary_mixed_volume(sk, st, j)

    methods = {
        "cayley": by_cayley,
        "interpolation": by_interpolation,
        "decomposition": by_decomposition,
        "closed-form": by_closed_form,
    }
    value = methods[args.method]()
    if args.cross_check:
        results = {args.method: value}
        for name, fn in methods.items():
            if name in results:
                continue
            try:
                results[name] = fn()
            except CliError as exc:
                if exc.code != EXIT_INAPPLICABLE:
                    raise
        if len(set(results.values())) > 1:
            detail = ", ".join(f"{n}={_rat(v)}" for n, v in sorted(results.items()))
            raise CliError(EXIT_MISMATCH, f"cross-check disagreement: {detail}")
    _emit(_rat(value) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Flags that only some body sources read

# Their defaults.  The parser leaves these flags unset, so that one given
# explicitly to a source that does not read it is refused, not dropped.
SOURCE_FLAG_DEFAULTS = {"seed": 0, "dim": 2, "trials": 10, "style": "unconditional",
                        "alphas": None, "beta": None}

# By ``--family`` (None: a seeded random body), the flags each source reads.
GODBERSEN_READS = {None: {"seed", "dim", "trials", "style"},
                   "cube": {"dim"}, "cross": {"dim"},
                   "equality-1": {"seed", "dim", "trials"},
                   "equality-2": {"seed", "dim", "trials"}}
GEN_READS = {None: {"seed", "dim", "style"},
             "cube": {"dim"}, "cross": {"dim"},
             "equality-1": {"alphas"}, "equality-2": {"alphas", "beta"}}


def _resolve_source_flags(args, reads: dict) -> None:
    """Give every source flag of the command left unset its default, after
    refusing (exit 2) one given that the chosen source does not read."""
    for name in sorted(set().union(*reads.values())):
        if getattr(args, name) is None:
            setattr(args, name, SOURCE_FLAG_DEFAULTS[name])
        elif name not in reads[args.family]:
            source = f"--family {args.family}" if args.family else "a random assembly"
            raise CliError(EXIT_PARSE, f"--{name} is not read by {source}")


# ---------------------------------------------------------------------------
# godbersen

def _family_assembly(family: str, dim: int, alphas=None, beta=None) -> OrthantAssembly:
    """The body a ``--family`` names: the unit cube or cross-polytope of
    dimension ``dim``, or the ``equality_family`` simplex of ``alphas`` (and
    ``beta`` for equality-2)."""
    if family in ("cube", "cross"):
        piece = unit_cube(dim) if family == "cube" else standard_simplex(dim)
        return from_unconditional(piece)
    return equality_family(1 if family == "equality-1" else 2, alphas, beta)


def _family_assemblies(args):
    fam = args.family
    if fam in ("cube", "cross"):
        yield {"family": fam, "dim": args.dim}, _family_assembly(fam, args.dim)
        return
    for trial in range(args.trials):
        rng = trial_rng(args.seed, trial)
        alphas = [Fraction(rng.randint(1, 8), rng.choice((1, 2))) for _ in range(args.dim)]
        beta = Fraction(rng.randint(1, 8), rng.choice((1, 2))) if fam == "equality-2" else None
        desc = {"family": fam, "trial": trial,
                "alphas": [_rat(a) for a in alphas]}
        if beta is not None:
            desc["beta"] = _rat(beta)
        yield desc, _family_assembly(fam, args.dim, alphas, beta)


def _random_assemblies(args):
    for trial in range(args.trials):
        style = args.style
        if style == "mixed":
            style = "glued" if trial % 2 else "unconditional"
        rng = trial_rng(args.seed, trial)
        yield {"style": style, "trial": trial}, random_assembly(rng, args.dim, style)


def _godbersen_records(desc: dict, assembly: OrthantAssembly) -> list[dict]:
    n = assembly.dim
    reports = [godbersen_check(assembly, j) for j in range(n + 1)]
    # V(K[j], -K[n-j]) = V(K[n-j], -K[j]): the mixed values are a palindrome.
    for j in range((n + 1) // 2):
        if reports[j].mixed != reports[n - j].mixed:
            raise EngineDisagreementError(
                f"V(K[{j}], -K[{n - j}]) = {reports[j].mixed} != "
                f"V(K[{n - j}], -K[{j}]) = {reports[n - j].mixed}"
            )
    # Equality at 1 <= j <= n-1 holds only for simplices (the paper's second
    # theorem), so on a body with more than n+1 vertices it is a violation.
    simplex = len(assembly.hull.vertices) == n + 1
    # The trivial equalities at j = 0 and j = n always carry the vertices.
    vertices = [[_rat(x) for x in v] for v in assembly.hull.vertices]
    records = []
    for j, rep in enumerate(reports):
        rec = dict(desc)
        rec.update(
            j=j,
            lhs=_rat(rep.mixed),
            rhs=_rat(rep.bound),
            ratio=_rat(rep.ratio),
            holds=rep.mixed <= rep.bound and (rep.trivial or not rep.is_equality or simplex),
            is_equality=rep.is_equality,
            trivial=rep.trivial,
        )
        if rep.is_equality or not rec["holds"]:
            rec["vertices"] = vertices
        records.append(rec)
    return records


def cmd_godbersen(args) -> int:
    _resolve_source_flags(args, GODBERSEN_READS)
    cap_dim(args.dim)
    if args.trials < 0:
        raise CliError(EXIT_PARSE, f"--trials must be nonnegative, got {args.trials}")
    report = SweepReport("godbersen", {
        "seed": args.seed, "dim": args.dim, "trials": args.trials,
        "style": args.style, "family": args.family,
    })
    instances = _family_assemblies(args) if args.family else _random_assemblies(args)
    for desc, assembly in instances:
        report.records.extend(_godbersen_records(desc, assembly))
    report.finalize()
    _emit(report.to_text(args.format, args.approx), args.out)
    return EXIT_OK if report.summary["violations"] == 0 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# audit

def cmd_audit(args) -> int:
    try:
        assembly = cio.assembly_from_obj(cio.load_json_file(args.assembly_file))
    except AssemblyError as exc:
        raise CliError(EXIT_PARSE, f"invalid assembly: {exc}") from exc
    if not 0 <= args.j <= assembly.dim:
        raise CliError(EXIT_PARSE, f"j must lie in 0..{assembly.dim}")
    audit = proof_chain_audit(assembly, args.j)
    obj = {
        "dim": audit.dim,
        "j": audit.j,
        "steps": [
            {"name": s.name, "relation": s.relation, "lhs": _rat(s.lhs),
             "rhs": _rat(s.rhs), "holds": s.holds, "slack": _rat(s.slack)}
            for s in audit.steps
        ],
        "bound": _rat(audit.bound),
        "ratio": _rat(audit.ratio),
        "all_hold": audit.all_hold,
    }
    _emit(cio.dumps(obj), args.out)
    return EXIT_OK if audit.all_hold else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# gen

def cmd_gen(args) -> int:
    _resolve_source_flags(args, GEN_READS)
    alphas = beta = None
    if args.family in ("equality-1", "equality-2"):
        if not args.alphas:
            raise CliError(EXIT_PARSE, "--family equality-* needs --alphas")
        alphas = _parse_rationals(args.alphas, "--alphas")
        # equality_family meets the cap with its orthant count.
        if args.family == "equality-2":
            if args.beta is None:
                raise CliError(EXIT_PARSE, "--family equality-2 needs --beta")
            beta = cio.parse_rational(args.beta)
    else:
        cap_dim(args.dim)
    if args.family:
        assembly = _family_assembly(args.family, args.dim, alphas, beta)
    else:
        assembly = random_assembly(trial_rng(args.seed, 0), args.dim, args.style)
    _emit(cio.dumps(cio.assembly_to_obj(assembly)), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simplex

def _parse_rationals(text: str, flag: str) -> list[Fraction]:
    """The comma-separated rationals of ``flag``'s value; a blank value lists
    none, and an empty entry in any other value is refused."""
    if not text.strip():
        return []
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise CliError(EXIT_PARSE, f"{flag} {text!r} has an empty entry")
    return [cio.parse_rational(part) for part in parts]


def cmd_simplex(args) -> int:
    alphas = _parse_rationals(args.alphas, "--alphas")
    if any(a < 0 for a in alphas):
        raise CliError(EXIT_PARSE, "alphas must be nonnegative")
    n = cap_dim(len(alphas))
    if not 0 <= args.j <= n:
        raise CliError(EXIT_PARSE, f"j must lie in 0..{n}")
    s = AlignedSimplex(alphas)
    if args.betas is not None:
        betas = _parse_rationals(args.betas, "--betas")
        if len(betas) != n:
            raise CliError(EXIT_PARSE, "need as many betas as alphas")
        t = AlignedSimplex(betas)
        value = corollary_mixed_volume(s, t, args.j)
        t_poly = t.to_polytope()
    else:
        value = lemma_mixed_volume(s, args.j)
        t_poly = standard_simplex(n)
    if args.cross_check:
        engine = mixed_volume_pair(s.to_polytope(), t_poly, args.j)
        if engine != value:
            raise CliError(
                EXIT_MISMATCH,
                f"cross-check disagreement: closed-form={_rat(value)} engine={_rat(engine)}",
            )
    _emit(_rat(value) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# decompose

def cmd_decompose(args) -> int:
    try:
        kb = cio.ab_from_obj(cio.load_json_file(args.k_file))
        tb = cio.ab_from_obj(cio.load_json_file(args.kprime_file))
    except (cio.ParseError, DimensionCapError):
        raise
    except ValueError as exc:
        raise CliError(EXIT_INAPPLICABLE, f"inputs must be anti-blocking: {exc}") from exc
    if kb.dim != tb.dim:
        raise CliError(EXIT_PARSE, "bodies have different dimensions")
    n = kb.dim
    js = [args.j] if args.j is not None else list(range(n + 1))
    mixed = {}
    for j in js:
        if not 0 <= j <= n:
            raise CliError(EXIT_PARSE, f"j must lie in 0..{n}")
        mixed[str(j)] = _rat(ab_opposite_mixed(kb, tb, j))
    join_vol = ab_join_volume(kb, tb)
    obj = {"dim": n, "opposite_mixed": mixed, "join_volume": _rat(join_vol)}
    if args.cross_check:
        for j in js:
            engine = mixed_volume_pair(kb.body, negate(tb.body), j)
            if _rat(engine) != mixed[str(j)]:
                raise CliError(
                    EXIT_MISMATCH,
                    f"cross-check disagreement at j={j}: decomposition={mixed[str(j)]} "
                    f"engine={_rat(engine)}",
                )
        direct = volume(join_hull(kb.body, negate(tb.body)))
        if direct != join_vol:
            raise CliError(
                EXIT_MISMATCH,
                f"join volume disagreement: decomposition={_rat(join_vol)} "
                f"hull={_rat(direct)}",
            )
        obj["cross_checked"] = True
    _emit(cio.dumps(obj), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing never changes it: every ``parse_args`` call fills a new namespace
    from the declared defaults.
    """
    parser = argparse.ArgumentParser(
        prog="cornervol",
        description="Exact mixed volumes, anti-blocking decompositions, and "
                    "Godbersen inequality verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mixvol", help="mixed volume V(K[j], T[n-j]) of two polytope files")
    p.add_argument("k_file")
    p.add_argument("t_file")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--method",
                   choices=("cayley", "interpolation", "decomposition", "closed-form"),
                   default="cayley")
    p.add_argument("--cross-check", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_mixvol)

    # The source flags of godbersen and gen (SOURCE_FLAG_DEFAULTS) have no
    # parser default: _resolve_source_flags fills it in.
    p = sub.add_parser("godbersen", help="sweep the mixed-volume bound over assemblies")
    p.add_argument("--seed", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--style", choices=("unconditional", "glued", "mixed"))
    p.add_argument("--family", choices=("equality-1", "equality-2", "cube", "cross"))
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--approx", action="store_true",
                   help="append non-authoritative float columns to CSV")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_godbersen)

    p = sub.add_parser("audit", help="verify the inequality chain on one assembly")
    p.add_argument("assembly_file")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("gen", help="emit an assembly as JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--style", choices=("unconditional", "glued"))
    p.add_argument("--family", choices=("equality-1", "equality-2", "cube", "cross"))
    p.add_argument("--alphas", help="comma-separated rationals for equality families")
    p.add_argument("--beta", help="rational beta for the second equality family")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("simplex", help="closed-form aligned-simplex mixed volumes")
    p.add_argument("--alphas", required=True)
    p.add_argument("--betas")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--cross-check", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_simplex)

    p = sub.add_parser("decompose", help="projection-split mixed volumes of an "
                                         "anti-blocking pair in opposite orthants")
    p.add_argument("k_file")
    p.add_argument("kprime_file")
    p.add_argument("--j", type=int)
    p.add_argument("--cross-check", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_decompose)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except EngineDisagreementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RuntimeError as exc:
        # Failed self-checks and generated assemblies.  This comes after
        # EngineDisagreementError, a RuntimeError that keeps its own code.
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
