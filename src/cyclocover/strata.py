"""Newton polygons and stratum censuses for four-branch-point families.

Per Frobenius orbit the generic polygon has slopes
lambda_j = #{c in orbit : f(c) >= g+1-j} / l for j = 1..g, each with
multiplicity l, and the bottom polygon is isoclinic of the same height
with slope sum(f over orbit) / (l*g).  Family polygons are slope-multiset
sums over all orbits; only the full sums are symmetric, the per-orbit
pieces need not be.

When p = +-1 mod m every balanced character pair {c, m-c} (signature 1
on both sides) contributes an independent binary choice: its piece stays
generic or drops to the isoclinic bottom, according to whether the
specialized chain polynomial phi_c vanishes at the curve coordinate.
The census decides each vanishing pattern exactly, by gcds and cofactors
of the radicals of the phi_c away from 0 and 1, and attaches those
polynomials as certificates.  In the remaining congruence classes only
the generic/non-generic split is reported, certified by the radical of
the chain polynomial at the smallest anchor character.  One row builder,
_census_rows, lists every stratum below the generic one with its
dimension, certificate and vanishing pairs; census reports its rows, and
classify_m7 labels a point by the one certificate that vanishes there.
The gcd of two radicals is fabc.fabc_gcd, at half their degree when both
are symmetric f(a,a,c).  Every radical is
hassewitt.h1_radical, the one the witness search also uses: in the
classes p = +-1 mod m phi_c is a single entry +-f(a,b,c) and its radical
is the closed form f(strip(a,b,c).reduced), with no chain composite and
no gcd(f, f'); longer chains take theirs from the chain's last layer,
with no gcd at the degree of the composite.
"""

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import __version__
from .errors import (
    HypothesisNotMet,
    InvalidInput,
    ParamOutOfRange,
    PDividesM,
    UnsupportedFamily,
    WrongCongruenceClass,
)
from .fabc import fabc, fabc_gcd
from .ff import (
    DEFAULT_TERM_BUDGET,
    ExtFieldElem,
    FpUniPoly,
    PrimeField,
    eval_in_ext,
    is_prime_u64,
)
from .hassewitt import (
    OrbitContext,
    branch_exponents,
    h1_radical,
    h1_radical_params,
    _phi_fabc_params,
)
from .monodromy import FrobeniusOrbit, MonodromyDatum, frobenius_orbits, signature, _is_int

LABEL_MU_ORDINARY = "MuOrdinary"
LABEL_W2 = "W2"
LABEL_W3 = "W3"
LABEL_BASIC = "Basic"
LABEL_NU = "Nu"
_LABELS = (LABEL_MU_ORDINARY, LABEL_W2, LABEL_W3, LABEL_BASIC, LABEL_NU)

M7_FAMILY = MonodromyDatum(7, 4, (3, 1, 1, 2))


def canonical_json(obj) -> str:
    """The one JSON encoding of every output line, cache key and cache
    record: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class NewtonPolygon:
    """Slope multiset (slope, multiplicity), slopes strictly increasing."""

    parts: tuple

    def __post_init__(self):
        prev = None
        for part in self.parts:
            if not (isinstance(part, tuple) and len(part) == 2):
                raise InvalidInput(f"polygon part must be (slope, mult): got {part!r}")
            slope, mult = part
            if not isinstance(slope, Fraction):
                raise InvalidInput(f"slope must be a Fraction: got {slope!r}")
            if not 0 <= slope <= 1:
                raise InvalidInput(f"slope {slope} outside [0, 1]")
            if not (isinstance(mult, int) and mult > 0):
                raise InvalidInput(f"multiplicity must be a positive integer: got {mult!r}")
            if prev is not None and slope <= prev:
                raise InvalidInput("slopes must be strictly increasing")
            prev = slope

    @classmethod
    def from_slopes(cls, pairs) -> "NewtonPolygon":
        """Normalize any (slope, mult) iterable: merge equal slopes, sort."""
        acc: dict = {}
        for slope, mult in pairs:
            slope = Fraction(slope)
            acc[slope] = acc.get(slope, 0) + mult
        return cls(tuple(sorted((s, m) for s, m in acc.items() if m != 0)))

    @property
    def height(self) -> int:
        return sum(m for _, m in self.parts)

    @property
    def slope_sum(self) -> Fraction:
        return sum((s * m for s, m in self.parts), Fraction(0))

    @property
    def is_symmetric(self) -> bool:
        table = dict(self.parts)
        return all(table.get(1 - s, 0) == m for s, m in self.parts)

    @property
    def is_supersingular(self) -> bool:
        return all(s == Fraction(1, 2) for s, _ in self.parts)

    def __add__(self, other: "NewtonPolygon") -> "NewtonPolygon":
        """Multiset union of the slope parts."""
        return NewtonPolygon.from_slopes(self.parts + other.parts)

    def to_text(self) -> str:
        if not self.parts:
            return "()"
        return " ".join(f"{s}^{m}" for s, m in self.parts)

    def to_json(self) -> list:
        return [[str(s), m] for s, m in self.parts]


def ord_polygon(eps: int) -> NewtonPolygon:
    """Slopes {0, 1} each with multiplicity eps; eps = 0 gives the empty
    polygon."""
    if eps < 0:
        raise ParamOutOfRange(f"ord multiplicity must be >= 0: got {eps}")
    if eps == 0:
        return NewtonPolygon(())
    return NewtonPolygon(((Fraction(0), eps), (Fraction(1), eps)))


def _orbit_g(orbit: FrobeniusOrbit, sig) -> int:
    m = len(sig)
    g = sig[orbit.members[0]] + sig[(m - orbit.members[0]) % m]
    for c in orbit.members:
        if sig[c] + sig[(m - c) % m] != g:
            raise InvalidInput(f"signature sum not constant on orbit {orbit.members}")
    return g


def mu_ordinary_orbit(orbit: FrobeniusOrbit, sig) -> NewtonPolygon:
    """Generic polygon of one orbit: lambda_j = #{c : f(c) >= g+1-j} / l,
    multiplicity l for each j = 1..g."""
    g = _orbit_g(orbit, sig)
    l = orbit.l
    pairs = []
    for j in range(1, g + 1):
        cnt = sum(1 for c in orbit.members if sig[c] >= g + 1 - j)
        pairs.append((Fraction(cnt, l), l))
    return NewtonPolygon.from_slopes(pairs)


def basic_orbit(orbit: FrobeniusOrbit, sig) -> NewtonPolygon:
    """Bottom polygon of one orbit: isoclinic of height l*g with slope
    sum(f over orbit) / (l*g)."""
    g = _orbit_g(orbit, sig)
    height = orbit.l * g
    if height == 0:
        return NewtonPolygon(())
    fsum = sum(sig[c] for c in orbit.members)
    return NewtonPolygon(((Fraction(fsum, height), height),))


def _orbit_sum(datum: MonodromyDatum, p: int, piece) -> NewtonPolygon:
    """Sum of piece(orbit, sig) over the Frobenius orbits of the family at
    p, which depend on p only mod m; callers validate p."""
    sig = signature(datum)
    return NewtonPolygon.from_slopes(
        part for orbit in frobenius_orbits(datum.m, p, sig) for part in piece(orbit, sig).parts
    )


def mu_ordinary_family(datum: MonodromyDatum, p: int) -> NewtonPolygon:
    """Generic polygon of the whole family: sum over all orbits."""
    PrimeField(p)
    return _orbit_sum(datum, p, mu_ordinary_orbit)


def basic_family(datum: MonodromyDatum, p: int) -> NewtonPolygon:
    """Bottom polygon of the whole family: sum of isoclinic orbit pieces."""
    PrimeField(p)
    return _orbit_sum(datum, p, basic_orbit)


@functools.lru_cache(maxsize=1024)
def _stratum_polygon(datum: MonodromyDatum, p_class: int, vanishing: frozenset) -> NewtonPolygon:
    """Polygon of the stratum where exactly the pairs named in `vanishing`
    (by their representative min(c, m-c)) drop to the bottom piece, at the
    primes p = p_class mod m.  It depends on nothing else, so it is
    memoized by (datum, p mod m, vanishing); callers validate p."""
    m = datum.m

    def piece(orbit: FrobeniusOrbit, sig) -> NewtonPolygon:
        rep = min(min(c, m - c) for c in orbit.members)
        return (basic_orbit if rep in vanishing else mu_ordinary_orbit)(orbit, sig)

    return _orbit_sum(datum, p_class, piece)


@dataclass(frozen=True)
class StratumLabel:
    kind: str
    m: int
    p_class: int

    def __post_init__(self):
        if self.kind not in _LABELS:
            raise InvalidInput(f"unknown stratum kind {self.kind!r}")
        if not 1 <= self.p_class < self.m:
            raise InvalidInput(f"residue class {self.p_class} outside 1..{self.m - 1}")
        if self.kind in (LABEL_W2, LABEL_W3) and not (
            self.m == 7 and self.p_class in (1, 6)
        ):
            raise InvalidInput(f"{self.kind} only exists for m=7, p = +-1 mod 7")

    def __str__(self) -> str:
        return f"{self.kind}(p={self.p_class} mod {self.m})"


@dataclass(frozen=True)
class Classification:
    label: StratumLabel
    polygon: NewtonPolygon


def _vanishes_at(f: FpUniPoly, alpha) -> bool:
    if isinstance(alpha, ExtFieldElem):
        return eval_in_ext(f, alpha).is_zero
    return f.evaluate(alpha) == 0


def classify_m7(p: int, alpha, budget: int = DEFAULT_TERM_BUDGET) -> Classification:
    """Stratum of the curve with coordinate alpha in the (7,4,(3,1,1,2))
    family: the census row whose certificate vanishes at alpha, or
    MuOrdinary when none does.  The certificates are coprime, so at most
    one vanishes there.

    alpha may be an integer (prime-field point) or an ExtFieldElem."""
    field = PrimeField(p)
    cls = p % 7
    if cls not in (1, 6):
        raise WrongCongruenceClass(f"p = {p} is {cls} mod 7, need +-1")
    if isinstance(alpha, ExtFieldElem):
        if alpha.ext.base != field:
            raise InvalidInput(f"alpha lives over p={alpha.ext.base.p}, expected {p}")
        excluded = alpha.is_zero or alpha == alpha.ext.from_base(1)
    else:
        excluded = alpha % p in (0, 1)
    if excluded:
        raise ParamOutOfRange("alpha must avoid 0 and 1")
    _, rows = _census_rows(M7_FAMILY, p, budget)
    kind, vanishing = next(
        ((kind, vanishing) for kind, _, cert, vanishing in rows if _vanishes_at(cert, alpha)),
        (LABEL_MU_ORDINARY, frozenset()),
    )
    return Classification(
        label=StratumLabel(kind, 7, cls),
        polygon=_stratum_polygon(M7_FAMILY, cls, vanishing),
    )


@dataclass(frozen=True)
class StratumReport:
    label: StratumLabel
    dim: Optional[int]
    nonempty: bool
    certificate: Optional[str]
    polygon: NewtonPolygon

    def to_json_record(self) -> dict:
        return {
            "label": self.label.kind,
            "dim": self.dim,
            "nonempty": self.nonempty,
            "certificate": self.certificate,
        }


@dataclass(frozen=True)
class CensusReport:
    datum: MonodromyDatum
    p: int
    p_class: int
    dim_sh: int
    strata: tuple

    def to_json_record(self) -> dict:
        return {
            "p": self.p,
            "class": self.p_class,
            "strata": [s.to_json_record() for s in self.strata],
        }

    def to_json_line(self) -> str:
        return canonical_json(self.to_json_record())


def _balanced_reps(sig, m: int) -> list:
    """Representatives c < m - c of the balanced pairs {c, m - c}, those
    with signature 1 at c and at m - c."""
    return [c for c in range(1, (m + 1) // 2) if sig[c] == 1 and sig[m - c] == 1]


def _census_rows(datum: MonodromyDatum, p: int, budget: int) -> tuple:
    """(dim_sh, rows): the Shimura dimension of the family and one row
    (kind, dim, certificate, vanishing) per stratum below MuOrdinary.  The
    certificate is a monic polynomial in the curve coordinate whose roots
    are the stratum's points, and `vanishing` names the pairs (by their
    representative min(c, m - c)) that drop to the bottom piece there.

    For p = +-1 mod m each balanced pair's chain polynomial phi_c is one
    f(a,b,c), and its radical away from 0 and 1 the closed form of
    hassewitt.h1_radical_params.  One balanced pair gives the Basic row,
    certified by its radical; M7's pairs {2, 3} give W2, W3 and Basic,
    certified by the two cofactors and the gcd of the two radicals
    (fabc.fabc_gcd).  Other congruence classes give the Nu row, where
    every pair drops, certified by the radical of the anchor chain
    (hassewitt.h1_radical).  The radicals are computed before the refusal
    of a family with other balanced pairs; callers validate p."""
    m = datum.m
    sig = signature(datum)
    dim_sh = sum(sig[c] * sig[m - c] for c in range(1, (m + 1) // 2))
    if p % m not in (1, m - 1):
        anchor = min(c for c in range(1, m) if sig[c] == 1)
        rad = h1_radical(OrbitContext(datum, p, m - anchor), budget)
        return dim_sh, [(LABEL_NU, dim_sh - 1, rad, frozenset(range(1, (m + 1) // 2)))]
    reps = _balanced_reps(sig, m)
    found = {c: h1_radical_params(OrbitContext(datum, p, m - c), budget) for c in reps}
    if len(reps) == 1:
        return dim_sh, [(LABEL_BASIC, dim_sh - 1, found[reps[0]][0], frozenset(reps))]
    if m != 7 or reps != [2, 3]:
        raise UnsupportedFamily(f"no stratum labels for {len(reps)} balanced pairs (m={m})")
    (rad2, q2), (rad3, q3) = found[2], found[3]
    g = fabc_gcd(q2, q3)
    # g and the radicals are monic, so each quotient is too; no division
    # when g is 1 or the radical itself
    one = FpUniPoly.one(g.field)
    w2_cof, w3_cof = (
        rad if g.degree == 0 else one if rad == g else rad // g for rad in (rad3, rad2)
    )
    return dim_sh, [
        (LABEL_W2, dim_sh - 1, w2_cof, frozenset({3})),
        (LABEL_W3, dim_sh - 1, w3_cof, frozenset({2})),
        (LABEL_BASIC, dim_sh - 2, g, frozenset({2, 3})),
    ]


def census(
    datum: MonodromyDatum,
    p: int,
    allow_small: bool = False,
    budget: int = DEFAULT_TERM_BUDGET,
) -> CensusReport:
    """Which strata meet the family at prime p, with exact certificates.

    The rows below MuOrdinary and their certificates come from
    _census_rows: for p = +-1 mod m the gcds and cofactors of the
    balanced pairs' radicals, read off the f(a,b,c) closed form (a
    pattern is realized exactly when its certificate has positive
    degree), with the gcd of two symmetric radicals f(a,a,c) taken at
    half their degree (fabc.fabc_gcd); in the other classes the two-row
    generic / non-generic report, certified by the radical of the anchor
    chain's composite, taken from the chain's last layer
    (hassewitt.h1_radical).  The MuOrdinary row is always nonempty and
    has no certificate.  The Nu row's polygon is basic_family(datum, p),
    read from the memo as the stratum where every pair vanishes: the
    orbits depend on p only mod m, and every orbit's representative
    min(c, m - c) names a pair, so every orbit takes its basic piece."""
    if datum.r != 4 or datum.m not in (5, 7):
        raise UnsupportedFamily(
            f"census needs r=4 and m in {{5, 7}}: got m={datum.m}, r={datum.r}"
        )
    PrimeField(p)
    if math.gcd(p, datum.m) != 1:
        raise PDividesM(f"p = {p} shares a factor with m = {datum.m}")
    if p <= 3 * datum.m and not allow_small:
        raise HypothesisNotMet(
            f"census assumes p > {3 * datum.m}; pass allow_small=True to force p = {p}"
        )
    cls = p % datum.m
    dim_sh, rows = _census_rows(datum, p, budget)
    strata = []
    for kind, dim, cert, vanishing in [(LABEL_MU_ORDINARY, dim_sh, None, frozenset()), *rows]:
        nonempty = cert is None or (cert.degree or 0) >= 1
        strata.append(
            StratumReport(
                label=StratumLabel(kind, datum.m, cls),
                dim=dim,
                nonempty=nonempty,
                certificate=None if cert is None or not nonempty else cert.to_text(),
                polygon=_stratum_polygon(datum, cls, vanishing),
            )
        )
    return CensusReport(datum=datum, p=p, p_class=cls, dim_sh=dim_sh, strata=tuple(strata))


# ---------------------------------------------------------------------------
# census records: the one path from primes to records, cache and CSV

_STRATUM_KEYS = ["certificate", "dim", "label", "nonempty"]


def _is_census_record(rec) -> bool:
    """Whether rec has the shape CensusReport.to_json_record writes."""
    if not (isinstance(rec, dict) and sorted(rec) == ["class", "p", "strata"]):
        return False
    strata = rec["strata"]
    if not (_is_int(rec["p"]) and _is_int(rec["class"])
            and isinstance(strata, list) and strata):
        return False
    return all(
        isinstance(s, dict) and sorted(s) == _STRATUM_KEYS
        and isinstance(s["label"], str)
        and (s["dim"] is None or _is_int(s["dim"]))
        and isinstance(s["nonempty"], bool)
        and (s["certificate"] is None or isinstance(s["certificate"], str))
        for s in strata
    )


class RecordCache:
    """Census records, one file per key: <cache_dir>/<key>.json holds the
    record's canonical_json.

    Inert when no cache_dir is configured.  A record file that cannot be
    opened or parsed, or whose record has the wrong shape, is a miss, so
    a damaged cache degrades to recomputation, never to a wrong answer or
    a crash.  put writes a temporary file beside the key's file and
    renames it over that file, so a reader sees a whole record or none."""

    def __init__(self, cache_dir: Optional[str]):
        self.cache_dir = cache_dir

    @staticmethod
    def key(datum: MonodromyDatum, p: int) -> str:
        payload = canonical_json(
            {"command": "census", "datum": [datum.m, datum.r, list(datum.a)],
             "p": p, "version": __version__}
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def get(self, key: str) -> Optional[dict]:
        if self.cache_dir is None:
            return None
        try:
            with open(os.path.join(self.cache_dir, key + ".json"), encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError, RecursionError):
            return None
        return record if _is_census_record(record) else None

    def put(self, key: str, record: dict) -> None:
        if self.cache_dir is None:
            return
        path = os.path.join(self.cache_dir, key + ".json")
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(record))
            os.replace(tmp, path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise InvalidInput(f"cannot write the census cache in {self.cache_dir}: {exc}") from None


def _census_task(datum: MonodromyDatum, p: int, allow_small: bool, budget: int) -> dict:
    return census(datum, p, allow_small=allow_small, budget=budget).to_json_record()


def census_records(
    datum: MonodromyDatum,
    primes,
    workers: int = 1,
    allow_small: bool = False,
    budget: int = DEFAULT_TERM_BUDGET,
    cache: Optional[RecordCache] = None,
) -> list:
    """CensusReport.to_json_record() of each prime, in the order given.

    Records found in the cache are replayed as stored, without a new
    census, so allow_small and budget bear on the misses only.  A stored
    record whose p is not the prime asked for, or whose class is not
    p mod m (a record file copied or renamed to another prime's key), is
    a miss, and its file is rewritten.  The misses are computed serially,
    or in a process pool of min(workers, misses, CPUs) workers, and each
    is stored in the cache as a file of its own, so the cache's files do
    not depend on the worker count."""
    if workers < 1:
        raise ParamOutOfRange(f"workers must be >= 1: got {workers}")
    if cache is None:
        cache = RecordCache(None)
    keys = [RecordCache.key(datum, p) for p in primes]
    records = [cache.get(key) for key in keys]
    misses = [
        i for i, (p, rec) in enumerate(zip(primes, records))
        if rec is None or (rec["p"], rec["class"]) != (p, p % datum.m)
    ]
    missed_primes = [primes[i] for i in misses]
    task = functools.partial(_census_task, datum, allow_small=allow_small, budget=budget)
    workers = min(workers, len(misses), os.cpu_count() or 1)
    if workers <= 1:
        computed = [task(p) for p in missed_primes]
    else:
        # imported here: a process that starts no pool does not load it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            computed = list(pool.map(task, missed_primes))
    for i, rec in zip(misses, computed):
        cache.put(keys[i], rec)
        records[i] = rec
    return records


def census_csv(records) -> str:
    """Census records as CSV, one row per stratum: lowercase booleans,
    empty cells for None, quoting only where a cell needs it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p", "class", "label", "dim", "nonempty", "certificate"])
    for rec in records:
        for s in rec["strata"]:
            writer.writerow([
                rec["p"],
                rec["class"],
                s["label"],
                "" if s["dim"] is None else s["dim"],
                "true" if s["nonempty"] else "false",
                "" if s["certificate"] is None else s["certificate"],
            ])
    return buf.getvalue()


@dataclass(frozen=True)
class SurveyResult:
    """Census records of the primes of one congruence class, in
    increasing-p order."""

    datum: MonodromyDatum
    congruence: int
    records: tuple

    @property
    def counts(self) -> dict:
        """Number of primes at which each stratum label is nonempty."""
        out: dict = {}
        for rec in self.records:
            for s in rec["strata"]:
                if s["nonempty"]:
                    out[s["label"]] = out.get(s["label"], 0) + 1
        return out

    def nonempty_count(self, kind: str) -> int:
        return self.counts.get(kind, 0)


def survey_primes(m: int, congruence: int, count: int) -> list:
    """First `count` odd primes congruent to `congruence` mod m.

    The prime 2 is left out: no census runs at it, so a class that
    contains it starts at its first odd prime."""
    if count < 0:
        raise ParamOutOfRange(f"count must be >= 0: got {count}")
    if not 1 <= congruence < m or math.gcd(congruence, m) != 1:
        raise ParamOutOfRange(
            f"congruence class {congruence} mod {m} contains at most one prime"
        )
    primes = []
    n = congruence
    while len(primes) < count:
        if n >= 3 and is_prime_u64(n):
            primes.append(n)
        n += m
    return primes


def prime_survey(
    datum: MonodromyDatum,
    congruence: int,
    count: int,
    workers: int = 1,
    allow_small: bool = False,
    budget: int = DEFAULT_TERM_BUDGET,
    cache: Optional[RecordCache] = None,
) -> SurveyResult:
    """Census of the first `count` primes in one congruence class, through
    census_records."""
    primes = survey_primes(datum.m, congruence, count)
    records = census_records(datum, primes, workers, allow_small, budget, cache)
    return SurveyResult(datum=datum, congruence=congruence, records=tuple(records))


def supersingular_minus_one(datum: MonodromyDatum, p: int) -> bool:
    """Does the curve at coordinate -1 drop to the all-1/2 bottom polygon?

    Needs m odd, a repeated label, and p = -1 mod m.  With the repeated
    labels moved to the middle slots, the coordinate -1 is the fixed
    point of the swap of the two finite nonzero branch points, and each
    balanced pair's chain entry is evaluated there; the unbalanced pairs
    contribute forced half-slope pieces.  Returns the verdict of the
    evaluations (the theory says every one vanishes)."""
    m = datum.m
    if m % 2 == 0:
        raise HypothesisNotMet(f"m must be odd: got {m}")
    if datum.r != 4:
        raise HypothesisNotMet(f"four branch points required: got r={datum.r}")
    repeated = next(
        (
            (i, j)
            for i in range(4)
            for j in range(i + 1, 4)
            if datum.a[i] == datum.a[j]
        ),
        None,
    )
    if repeated is None:
        raise HypothesisNotMet("labels are pairwise distinct")
    if p % m != m - 1:
        raise HypothesisNotMet(f"p = {p} is {p % m} mod {m}, need -1")
    PrimeField(p)
    i, j = repeated
    outer = [k for k in range(4) if k not in (i, j)]
    swapped = MonodromyDatum(m, 4, tuple(datum.a[k] for k in (outer[0], i, j, outer[1])))
    for c in _balanced_reps(signature(datum), m):
        bs = branch_exponents(swapped, p, c)
        closed = _phi_fabc_params(p, bs, sum(bs) - p + 1)
        if closed is not None and fabc(closed[0]).evaluate(p - 1) != 0:
            return False
    return True
