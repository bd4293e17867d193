"""Command-line front door: compute, verify, generate, and report.

Every command is a pure function of its flags and input files; seeded runs
produce byte-identical reports.  All printed numbers are exact rational
strings (an optional approximation column in CSV is clearly marked).

Exit codes: 0 all checks pass; 1 a verified inequality was violated (a
would-be counterexample, i.e. an engine bug worth reporting); 2 parse or
configuration failure; 3 requested method inapplicable to the input class;
4 cross-check disagreement between independent computation paths; 5 internal
error (a failed engine self-check or a generator that gave up), never a
verdict on the inequality.
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
    VPolytope,
    join_hull,
    max_dim,
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

_SWEEP_DIM_CAP = 4
_SINGLE_DIM_CAP = 6


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _dim_cap(kind: str) -> int:
    return max_dim(_SWEEP_DIM_CAP if kind == "sweep" else _SINGLE_DIM_CAP)


def _check_dim(n: int, kind: str) -> None:
    cap = _dim_cap(kind)
    if n > cap:
        raise CliError(
            EXIT_PARSE,
            f"dimension {n} above the {kind} cap {cap} "
            "(set CORNER_MIXVOL_MAX_DIM to override, at your own risk)",
        )


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    dim: int = 2
    trials: int = 1
    output_format: str = "json"
    approx: bool = False


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
        ratios = [Fraction(r["ratio"]) for r in self.records if r.get("ratio") is not None]
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
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# mixvol

def _detect_aligned(p: VPolytope) -> AlignedSimplex | None:
    # conv(0, a_i e_i) in canonical form always lists the origin as a vertex
    # and at most one positive vertex per axis.
    alphas = [Fraction(0)] * p.dim
    origin_seen = False
    for v in p.vertices:
        support = [(i, x) for i, x in enumerate(v) if x != 0]
        if not support:
            origin_seen = True
            continue
        if len(support) > 1:
            return None
        i, x = support[0]
        if x < 0 or alphas[i] != 0:
            return None
        alphas[i] = x
    if not origin_seen:
        return None
    return AlignedSimplex(p.dim, tuple(alphas))


def cmd_mixvol(args) -> int:
    k = cio.polytope_from_obj(cio.load_json_file(args.k_file))
    t = cio.polytope_from_obj(cio.load_json_file(args.t_file))
    if k.dim != t.dim:
        raise CliError(EXIT_PARSE, "input polytopes have different dimensions")
    _check_dim(k.dim, "single")
    j = args.j
    if not 0 <= j <= k.dim:
        raise CliError(EXIT_PARSE, f"j must lie in 0..{k.dim}")

    def by_cayley() -> Fraction:
        return mixed_volume_pair(k, t, j)

    def by_interpolation() -> Fraction:
        return volume_polynomial_by_probes(k, t).mixed(j)

    def by_decomposition() -> Fraction:
        try:
            kb = AntiBlockingBody.from_polytope(k)
            tb = AntiBlockingBody.from_polytope(negate(t))
        except ValueError as exc:
            raise CliError(
                EXIT_INAPPLICABLE,
                "decomposition needs an anti-blocking K and a T whose negation "
                f"is anti-blocking: {exc}",
            ) from exc
        return ab_opposite_mixed(kb, tb, j)

    def by_closed_form() -> Fraction:
        sk = _detect_aligned(k)
        st = _detect_aligned(t)
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
# godbersen

def _family_assemblies(args, config: RunConfig):
    fam = args.family
    if fam in ("cube", "cross"):
        piece = unit_cube(config.dim) if fam == "cube" else standard_simplex(config.dim)
        yield {"family": fam, "dim": config.dim}, from_unconditional(AntiBlockingBody(piece))
        return
    case = 1 if fam == "equality-1" else 2
    for trial in range(config.trials):
        rng = trial_rng(config.seed, trial)
        alphas = [Fraction(rng.randint(1, 8), rng.choice((1, 2))) for _ in range(config.dim)]
        beta = Fraction(rng.randint(1, 8), rng.choice((1, 2))) if case == 2 else None
        desc = {"family": fam, "trial": trial,
                "alphas": [_rat(a) for a in alphas]}
        if beta is not None:
            desc["beta"] = _rat(beta)
        yield desc, equality_family(case, alphas, beta)


def _random_assemblies(args, config: RunConfig):
    for trial in range(config.trials):
        style = args.style
        if style == "mixed":
            style = "glued" if trial % 2 else "unconditional"
        rng = trial_rng(config.seed, trial)
        yield {"style": style, "trial": trial}, random_assembly(rng, config.dim, style)


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
    records = []
    for j, rep in enumerate(reports):
        rec = dict(desc)
        rec.update(
            j=j,
            lhs=_rat(rep.mixed),
            rhs=_rat(rep.bound),
            ratio=_rat(rep.ratio) if rep.ratio is not None else None,
            holds=rep.mixed <= rep.bound,
            is_equality=rep.is_equality,
            trivial=rep.trivial,
        )
        if rep.is_equality or not rec["holds"]:
            rec["vertices"] = [[_rat(x) for x in v] for v in assembly.hull.vertices]
        records.append(rec)
    return records


def cmd_godbersen(args) -> int:
    config = RunConfig(args.seed, args.dim, args.trials, args.format, args.approx)
    _check_dim(config.dim, "sweep")
    report = SweepReport("godbersen", {
        "seed": config.seed, "dim": config.dim, "trials": config.trials,
        "style": args.style, "family": args.family,
    })
    instances = (_family_assemblies(args, config) if args.family
                 else _random_assemblies(args, config))
    for desc, assembly in instances:
        report.records.extend(_godbersen_records(desc, assembly))
    report.finalize()
    _emit(report.to_text(config.output_format, config.approx), args.out)
    return EXIT_OK if report.summary["violations"] == 0 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# audit

def cmd_audit(args) -> int:
    try:
        assembly = cio.assembly_from_obj(cio.load_json_file(args.assembly_file))
    except AssemblyError as exc:
        raise CliError(EXIT_PARSE, f"invalid assembly: {exc}") from exc
    _check_dim(assembly.dim, "single")
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
    if args.family:
        if args.family in ("cube", "cross"):
            _check_dim(args.dim, "single")
            piece = unit_cube(args.dim) if args.family == "cube" else standard_simplex(args.dim)
            assembly = from_unconditional(AntiBlockingBody(piece))
        else:
            if not args.alphas:
                raise CliError(EXIT_PARSE, "--family equality-* needs --alphas")
            alphas = _parse_rationals(args.alphas)
            _check_dim(len(alphas), "single")
            if args.family == "equality-1":
                assembly = equality_family(1, alphas)
            else:
                if args.beta is None:
                    raise CliError(EXIT_PARSE, "--family equality-2 needs --beta")
                assembly = equality_family(2, alphas, cio.parse_rational(args.beta))
    else:
        _check_dim(args.dim, "sweep")
        assembly = random_assembly(trial_rng(args.seed, 0), args.dim, args.style)
    _emit(cio.dumps(cio.assembly_to_obj(assembly)), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simplex

def _parse_rationals(text: str) -> list[Fraction]:
    try:
        return [cio.parse_rational(part) for part in text.split(",") if part.strip()]
    except cio.ParseError as exc:
        raise CliError(EXIT_PARSE, str(exc)) from exc


def cmd_simplex(args) -> int:
    alphas = _parse_rationals(args.alphas)
    if any(a < 0 for a in alphas):
        raise CliError(EXIT_PARSE, "alphas must be nonnegative")
    n = len(alphas)
    _check_dim(n, "single")
    if not 0 <= args.j <= n:
        raise CliError(EXIT_PARSE, f"j must lie in 0..{n}")
    s = AlignedSimplex.of(alphas)
    if args.betas:
        betas = _parse_rationals(args.betas)
        if len(betas) != n:
            raise CliError(EXIT_PARSE, "need as many betas as alphas")
        t = AlignedSimplex.of(betas)
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
    except cio.ParseError:
        raise
    except ValueError as exc:
        raise CliError(EXIT_INAPPLICABLE, f"inputs must be anti-blocking: {exc}") from exc
    if kb.dim != tb.dim:
        raise CliError(EXIT_PARSE, "bodies have different dimensions")
    _check_dim(kb.dim, "single")
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

    p = sub.add_parser("godbersen", help="sweep the mixed-volume bound over assemblies")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--style", choices=("unconditional", "glued", "mixed"),
                   default="unconditional")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--style", choices=("unconditional", "glued"), default="unconditional")
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
    except cio.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EngineDisagreementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except AssemblyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RuntimeError as exc:
        # GenerationError and failed engine self-checks.  This comes after
        # EngineDisagreementError, a RuntimeError that keeps its own code.
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
