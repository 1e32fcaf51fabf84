"""Command line front end.

One executable, `cyclocover`, with subcommands that mirror the library
surface: datum inspection, mu-ordinary polygons, Hasse-Witt entries and
chain composites, witness search, per-prime censuses, multi-prime
surveys, clutching, and the f(a,b,c) toolkit.

Configuration is resolved lowest to highest: built-in defaults, a
key=value config file (--config), the CYCLOCOVER_CACHE_DIR and
CYCLOCOVER_WORKERS environment variables, explicit flags.  A seed is
required only by the command that splits polynomials at random
(witness), and its output does not depend on it; everything else is
deterministic without one.  Identical invocations print byte-identical
JSON.  An empty cache_dir, from any layer, means no cache.

Census records can be cached under cache_dir, one JSON file per record
named by its key.  The key is a content hash of (command, datum, p,
version), so a hit replays exactly the record a fresh run would produce.
census and survey both get their records from strata.census_records, so
they share the cache, and a survey writes only the primes it had to
compute.

Each subcommand handler computes its result and writes nothing.  It
returns (records, human), two zero-argument callables: records() gives
the command's JSON objects, human() its human lines.  main is the only
code that writes stdout: -o json prints each record as one canonical
JSON line (one per prime for survey), -o csv prints census_csv of the
records (census and survey only), and -o human prints the lines.  Both
are lazy because a run uses only one of them: -o json never builds the
text of a large h1, and -o human never copies its coefficients into a
record.

Exit codes: 0 success, 2 hypothesis not met, 3 budget exceeded,
4 invalid input.  Errors print one line to stderr in the form
`error[<code>]: <message>` with the stable code slug of the exception.
"""

import argparse
import functools
import os
import sys
from dataclasses import dataclass, fields
from typing import Optional

from . import __version__
from .errors import (
    CyclocoverError,
    DegreeBudgetExceeded,
    HypothesisNotMet,
    InvalidInput,
    ParamOutOfRange,
)
from .fabc import FabcParams, fabc
from .fabc import strip as fabc_strip
from .ff import DEFAULT_TERM_BUDGET, ExtFieldElem, FpMultiPoly
from .hassewitt import (
    OrbitContext,
    h0,
    h1,
    nonordinary_witness,
    phi_entry,
    psi_entry,
    specialize_infty,
)
from .monodromy import (
    canonicalize,
    clutch,
    frobenius_orbits,
    genus,
    parse_datum,
    signature,
)
from .strata import (
    RecordCache,
    canonical_json,
    census_csv,
    census_records,
    mu_ordinary_family,
    ord_polygon,
    prime_survey,
)

_OUTPUTS = ("human", "json", "csv")
_INT_KEYS = frozenset(("seed", "dmax", "term_budget", "workers"))


@dataclass(frozen=True)
class RunConfig:
    """Resolved run options shared by every subcommand."""

    seed: Optional[int] = None
    dmax: int = 4
    term_budget: int = DEFAULT_TERM_BUDGET
    workers: int = 1
    output: str = "human"
    cache_dir: Optional[str] = None

    def __post_init__(self):
        if self.term_budget < 1:
            raise ParamOutOfRange(f"term budget must be >= 1: got {self.term_budget}")
        if self.workers < 1:
            raise ParamOutOfRange(f"workers must be >= 1: got {self.workers}")
        if self.dmax < 1:
            raise ParamOutOfRange(f"dmax must be >= 1: got {self.dmax}")
        if self.output not in _OUTPUTS:
            raise InvalidInput(f"output must be one of {', '.join(_OUTPUTS)}")
        if self.seed is not None and not -(2**63) <= self.seed < 2**63:
            raise ParamOutOfRange("seed must fit in 64 bits")


# each field's default, copied fresh by build_config
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
_CONFIG_KEYS = tuple(_DEFAULTS)


def _coerce_int(name: str, value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise InvalidInput(f"{name} must be an integer: got {value!r}") from None


def read_config_file(path: str) -> dict:
    """key=value per line; blank lines and '#' comments are skipped."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidInput(f"cannot read config file {path}: {e}") from None
    out = {}
    for no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidInput(f"{path}:{no}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise InvalidInput(f"{path}:{no}: unknown key {key!r}")
        out[key] = value
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    values = dict(_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        for key, raw in read_config_file(config_path).items():
            values[key] = _coerce_int(key, raw) if key in _INT_KEYS else raw
    env_cache = os.environ.get("CYCLOCOVER_CACHE_DIR")
    if env_cache:
        values["cache_dir"] = env_cache
    env_workers = os.environ.get("CYCLOCOVER_WORKERS")
    if env_workers:
        values["workers"] = _coerce_int("CYCLOCOVER_WORKERS", env_workers)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    # an empty directory, from any layer, means no cache, as an empty
    # CYCLOCOVER_CACHE_DIR always did
    values["cache_dir"] = values["cache_dir"] or None
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# human text of a multivariate polynomial

def _multi_text(f: FpMultiPoly) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for exps, c in sorted(f.terms.items()):
        piece = [str(c)]
        for i, e in enumerate(exps):
            if e == 1:
                piece.append(f"x{i + 1}")
            elif e > 1:
                piece.append(f"x{i + 1}^{e}")
        parts.append("*".join(piece))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (records, human), see the module docstring

def _cmd_datum(args, cfg: RunConfig):
    d = parse_datum(args.datum)
    op = args.op
    if op == "validate":
        g = genus(d)
        return (lambda: [{"a": list(d.a), "genus": g, "m": d.m, "r": d.r, "valid": True}],
                lambda: [f"ok: {d.to_text()} (genus {g})"])
    if op == "canon":
        c = canonicalize(d)
        return lambda: [c.to_json()], lambda: [c.to_text()]
    if op == "signature":
        shown = list(signature(d)[1:])
        return lambda: [{"signature": shown}], lambda: [",".join(map(str, shown))]
    if op == "genus":
        g = genus(d)
        return lambda: [{"genus": g}], lambda: [str(g)]
    # orbits
    if args.p is None:
        raise InvalidInput("datum orbits needs a prime: pass -p")
    orbits = frobenius_orbits(d.m, args.p, signature(d))
    return (
        lambda: [{"orbits": [{"g": o.gO, "length": o.l, "members": list(o.members)}
                             for o in orbits]}],
        lambda: [f"({' '.join(map(str, o.members))})  l={o.l}  g={o.gO}" for o in orbits],
    )


def _cmd_mu_ord(args, cfg: RunConfig):
    d = parse_datum(args.datum)
    poly = mu_ordinary_family(d, args.p)
    return (lambda: [{"class": args.p % d.m, "polygon": poly.to_json()}],
            lambda: [poly.to_text()])


def _cmd_hw(args, cfg: RunConfig):
    d = parse_datum(args.datum)
    kind = args.kind
    if kind in ("phi", "psi"):
        for name in ("tau", "jp", "j"):
            if getattr(args, name) is None:
                raise InvalidInput(f"hw {kind} needs --tau, --jp and --j")
        build = phi_entry if kind == "phi" else psi_entry
        entry = build(d, args.p, args.tau, args.jp, args.j, cfg.term_budget)
        if args.specialize:
            uni = specialize_infty(entry)
            return (lambda: [{"entry": uni.to_json(), "specialized": True}],
                    lambda: [uni.to_text()])
        return (lambda: [{"entry": entry.to_json(), "specialized": False}],
                lambda: [_multi_text(entry)])
    # h1 | h0
    if args.b0 is None:
        raise InvalidInput(f"hw {kind} needs a base character: pass --b0")
    ctx = OrbitContext(d, args.p, args.b0)
    if kind == "h1":
        poly = h1(ctx, cfg.term_budget)
        return (lambda: [{"chars": list(ctx.chars), "h1": poly.to_json(), "i0": ctx.i0}],
                lambda: [poly.to_text()])
    poly = h0(ctx, cfg.term_budget)
    return (lambda: [{"chars": list(ctx.chars), "h0": poly.to_json()}],
            lambda: [_multi_text(poly)])


def _cmd_witness(args, cfg: RunConfig):
    if cfg.seed is None:
        raise InvalidInput("witness factors polynomials; --seed is required")
    d = parse_datum(args.datum)
    ctx = OrbitContext(d, args.p, args.b0)
    w = nonordinary_witness(ctx, cfg.dmax, cfg.seed, cfg.term_budget)
    if w is None:
        return (
            lambda: [{"alpha": None, "branch_order": None, "certificate": None,
                      "count": 0, "degree": 0, "found": False}],
            lambda: ["no roots outside {0, 1}: every smooth member here is ordinary"],
        )

    def records():
        alpha = w.alpha
        if isinstance(alpha, ExtFieldElem):
            alpha = alpha.to_json()
        elif alpha is not None:
            alpha = int(alpha)
        return [{
            "alpha": alpha,
            "branch_order": list(w.branch_order),
            "certificate": w.certificate.to_json(),
            "count": w.count,
            "degree": w.degree,
            "found": w.alpha is not None,
        }]

    def human():
        order = "(" + ", ".join(str(x) for x in w.branch_order) + ")"
        if w.alpha is None:
            yield (f"no witness of degree <= {cfg.dmax}; smallest certificate has "
                   f"degree {w.degree}: {w.certificate.to_text()}")
        elif w.degree == 1:
            yield (f"witness alpha = {w.alpha} in F_{args.p}; certificate "
                   f"{w.certificate.to_text()}; branch order {order}")
        else:
            yield (f"witness of degree {w.degree}: generator of "
                   f"F_{args.p}[t]/({w.certificate.to_text()}); branch order {order}")
        yield f"{w.count} distinct non-ordinary parameters outside {{0, 1}}"

    return records, human


def _cmd_census(args, cfg: RunConfig):
    d = parse_datum(args.datum)
    # the library refuses p <= 3m by default because the nonemptiness
    # certificates are only guaranteed above that bound; interactive use
    # wants the small primes anyway, so the command line opts in
    (rec,) = census_records(d, [args.p], allow_small=True, budget=cfg.term_budget,
                            cache=RecordCache(cfg.cache_dir))

    def human():
        yield f"datum {d.to_text()}"
        yield f"p={rec['p']} class={rec['class']}"
        for s in rec["strata"]:
            state = "nonempty" if s["nonempty"] else "empty"
            cert = "" if s["certificate"] is None else f"  cert {s['certificate']}"
            yield f"  {s['label']:<11} dim {s['dim']}  {state}{cert}"

    return lambda: [rec], human


def _cmd_survey(args, cfg: RunConfig):
    d = parse_datum(args.datum)
    sv = prime_survey(d, args.congruence, args.count, workers=cfg.workers,
                      allow_small=True, budget=cfg.term_budget,
                      cache=RecordCache(cfg.cache_dir))

    def human():
        for rec in sv.records:
            labels = " ".join(
                f"{s['label']}={'+' if s['nonempty'] else '-'}" for s in rec["strata"]
            )
            yield f"p={rec['p']:<6} {labels}"
        if sv.records:
            bottom = sv.records[0]["strata"][-1]["label"]
            yield f"{sv.nonempty_count(bottom)}/{len(sv.records)} {bottom.lower()}-nonempty"

    return lambda: sv.records, human


def _cmd_clutch(args, cfg: RunConfig):
    d1 = parse_datum(args.datum1)
    d2 = parse_datum(args.datum2)
    joined, eps = clutch(d1, d2)
    if args.p is not None:
        whole = mu_ordinary_family(joined, args.p)
        composed = (mu_ordinary_family(d1, args.p) + mu_ordinary_family(d2, args.p)
                    + ord_polygon(eps))

    def records():
        record = {"datum": joined.to_json(), "epsilon": eps}
        if args.p is not None:
            record.update(polygon=whole.to_json(), composed=composed.to_json(),
                          agrees=composed == whole)
        return [record]

    def human():
        yield f"clutched datum {joined.to_text()}  eps={eps}"
        if args.p is not None:
            yield f"mu-ordinary polygon   {whole.to_text()}"
            yield f"composed from pieces  {composed.to_text()}"
            yield f"agreement: {str(composed == whole).lower()}"

    return records, human


def _cmd_fabc(args, cfg: RunConfig):
    params = FabcParams(args.a, args.b, args.c, args.p)
    if args.mode != "strip":
        poly = fabc(params)
        return lambda: [{"poly": poly.to_json()}], lambda: [poly.to_text()]
    s = fabc_strip(params)
    r = s.reduced
    reduced_poly = fabc(r)
    return (
        lambda: [{"reduced": {"a": r.a, "b": r.b, "c": r.c, "p": r.p},
                  "reduced_poly": reduced_poly.to_json(),
                  "sign": s.sign,
                  "t1_power": s.t1_power,
                  "t_power": s.t_power}],
        lambda: [f"sign={s.sign} t^{s.t_power} (t-1)^{s.t1_power}",
                 f"reduced f({r.a},{r.b};{r.c}) = {reduced_poly.to_text()}"],
    )


_HANDLERS = {
    "datum": _cmd_datum,
    "mu-ord": _cmd_mu_ord,
    "hw": _cmd_hw,
    "witness": _cmd_witness,
    "census": _cmd_census,
    "survey": _cmd_survey,
    "clutch": _cmd_clutch,
    "fabc": _cmd_fabc,
}

_CSV_COMMANDS = frozenset(("census", "survey"))


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage through the package error channel
    instead of exiting with its own status convention."""

    def error(self, message):
        raise InvalidInput(message)


def _common_options() -> argparse.ArgumentParser:
    par = argparse.ArgumentParser(add_help=False)
    g = par.add_argument_group("run options")
    g.add_argument("--seed", type=int, default=None,
                   help="RNG seed; required by commands that factor polynomials")
    g.add_argument("--dmax", type=int, default=None,
                   help="largest extension degree searched for witnesses")
    g.add_argument("--term-budget", type=int, default=None,
                   help="cap on multivariate term count")
    g.add_argument("--workers", type=int, default=None,
                   help="worker processes (survey only)")
    g.add_argument("-o", "--output", choices=list(_OUTPUTS), default=None)
    g.add_argument("--cache-dir", default=None,
                   help="directory of the census cache, one JSON file per record")
    g.add_argument("--config", default=None,
                   help="key=value file merged below env vars and flags")
    return par


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    parser = _Parser(prog="cyclocover",
                     description="arithmetic of cyclic covers of the line")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("datum", parents=[common],
                         help="validate and inspect a monodromy datum")
    sp.add_argument("op", choices=["validate", "canon", "signature", "genus",
                                   "orbits"])
    sp.add_argument("datum", help="m:r:a1,...,ar")
    sp.add_argument("-p", "--prime", dest="p", type=int, default=None,
                    help="prime (orbits only)")

    sp = subs.add_parser("mu-ord", parents=[common],
                         help="mu-ordinary Newton polygon of the family")
    sp.add_argument("datum")
    sp.add_argument("-p", "--prime", dest="p", type=int, required=True)

    sp = subs.add_parser("hw", parents=[common],
                         help="Hasse-Witt entries and chain composites")
    sp.add_argument("kind", choices=["phi", "psi", "h1", "h0"])
    sp.add_argument("datum")
    sp.add_argument("-p", "--prime", dest="p", type=int, required=True)
    sp.add_argument("--tau", type=int, default=None, help="character index")
    sp.add_argument("--jp", type=int, default=None, help="row index")
    sp.add_argument("--j", type=int, default=None, help="column index")
    sp.add_argument("--b0", type=int, default=None,
                    help="base character of the chain (h1/h0)")
    sp.add_argument("--specialize", action="store_true",
                    help="send the last branch point to infinity (phi/psi)")

    sp = subs.add_parser("witness", parents=[common],
                         help="certified non-mu-ordinary member of a family")
    sp.add_argument("datum")
    sp.add_argument("-p", "--prime", dest="p", type=int, required=True)
    sp.add_argument("--b0", type=int, required=True, help="base character")

    sp = subs.add_parser("census", parents=[common],
                         help="stratum-by-stratum report at one prime")
    sp.add_argument("datum")
    sp.add_argument("-p", "--prime", dest="p", type=int, required=True)

    sp = subs.add_parser("survey", parents=[common],
                         help="census over the first primes in a residue class")
    sp.add_argument("datum")
    sp.add_argument("--class", dest="congruence", type=int, required=True,
                    help="residue class of p mod m")
    sp.add_argument("--count", type=int, required=True,
                    help="how many primes to visit")

    sp = subs.add_parser("clutch", parents=[common],
                         help="glue two data and compose their polygons")
    sp.add_argument("datum1")
    sp.add_argument("datum2")
    sp.add_argument("-p", "--prime", dest="p", type=int, default=None,
                    help="also compare mu-ordinary polygons at this prime")

    sp = subs.add_parser("fabc", parents=[common],
                         help="truncated (1+t)^a (1+xt)^b coefficient polynomials")
    sp.add_argument("mode", nargs="?", choices=["strip"], default=None,
                    help="strip: pull the roots at 0 and 1 out front")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--c", type=int, required=True)
    sp.add_argument("-p", "--prime", dest="p", type=int, required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process, on the first call to main."""
    return build_parser()


def _fail(exc: CyclocoverError, status: int) -> int:
    sys.stderr.write(f"error[{exc.code}]: {exc}\n")
    return status


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = build_config(args)
        if cfg.output == "csv" and args.command not in _CSV_COMMANDS:
            raise InvalidInput("csv output is only available for census and survey")
        records, human = _HANDLERS[args.command](args, cfg)
        # one write per record or line: a census certificate can run to
        # 100 MB, and joining the lines would hold the output twice
        if cfg.output == "json":
            for record in records():
                sys.stdout.write(canonical_json(record) + "\n")
        elif cfg.output == "csv":
            sys.stdout.write(census_csv(records()))
        else:
            for line in human():
                sys.stdout.write(line + "\n")
        return 0
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code is None else int(exc.code)
    except BrokenPipeError:
        # consumer closed the pipe (e.g. piping into head); exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except DegreeBudgetExceeded as exc:
        return _fail(exc, 3)
    except HypothesisNotMet as exc:
        return _fail(exc, 2)
    except CyclocoverError as exc:
        return _fail(exc, 4)


if __name__ == "__main__":
    sys.exit(main())
