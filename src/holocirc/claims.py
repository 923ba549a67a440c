"""Registry of verifiable claims.

Every entry pairs a closed-form statement from the library with an
independent brute-force route (orbit walks, repeated composition,
exhaustive filtering, full censuses) over an explicit finite range, and
reports pass/fail with reproducible evidence.  The registry is what the
``verify`` CLI command dispatches on.

Every claim but ``lem-lex`` (two statements, each of which must check
something) hands its cases to ``_tally`` in labelled groups, which counts
every case, reports each fault after its group's label and alone decides
the verdict; ``_sweep`` groups them by the widths of ``--n``,
``_over_moduli`` by the claim's moduli.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import cycle, product, takewhile
from math import gcd, prod
from typing import Callable, Collection, Iterable, Iterator, Optional

from . import circulant as circ_mod
from . import holomorph as hol
from . import numtheory as nt
from . import regular_classify as rc
from .permgroup import Perm, grow, orbits

DEFAULT_SAMPLES = 10_000
DEFAULT_SEED = 20260810
SUM_WIDTH = 40  # lem-3.2 works modulo 2^SUM_WIDTH
SUM_LENGTH_MAX = 1 << 10  # and draws both k and j from 1..SUM_LENGTH_MAX


@dataclass
class VerificationReport:
    claim_id: str
    parameters: dict
    status: str  # pass | fail | skipped
    evidence: list = field(default_factory=list)
    runtime: float = 0.0

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "parameters": self.parameters,
            "status": self.status,
            "evidence": self.evidence,
        }


@dataclass(frozen=True)
class Claim:
    claim_id: str
    description: str
    runner: Callable[[dict], tuple[str, list, dict]]
    flags: tuple[str, ...] = ()  # the ``verify`` flags the runner reads
    max_n: Optional[int] = None  # the widest --n the runner can check


def run_claim(claim_id: str, params: Optional[dict] = None) -> VerificationReport:
    if claim_id not in REGISTRY:
        raise KeyError(claim_id)
    t0 = time.perf_counter()
    status, evidence, used = REGISTRY[claim_id].runner(dict(params or {}))
    return VerificationReport(
        claim_id, used, status, evidence, time.perf_counter() - t0
    )


def claim_ids() -> list[str]:
    return list(REGISTRY)


# shared brute-force helpers (the independent route)


def _all_elements(n: int) -> list[hol.HolElem2]:
    """Every element of Hol(Z_{2^n}), by (alpha, beta, gamma)."""
    return [
        hol._reduced(n, a, b, g)
        for a in range(1 << n)
        for b in (0, 1)
        for g in range(1 << (n - 2))
    ]


def _affine_pair(h: hol.HolElem2) -> tuple[int, int]:
    """h as the pair (a, c) of its map x -> (x + alpha)*m = a*x + c mod 2^n."""
    m = h.multiplier
    return m, h.alpha * m % h.modulus


def _powers(h: hol.HolElem2) -> Iterator[tuple[int, int]]:
    """h, h^2, h^3, ... as pairs (a, c), by composing the map of h with
    itself on integers rather than by the normal-form product."""
    mod = h.modulus
    a, c = m, b = _affine_pair(h)
    while True:
        yield a, c
        a, c = a * m % mod, (c * m + b) % mod


def _power_by_squaring(h: hol.HolElem2, r: int) -> tuple[int, int]:
    """h^r as the pair (a, c), composing the map of h by squaring."""
    mod, a, c = h.modulus, 1, 0
    m, b = _affine_pair(h)
    while r:
        if r & 1:
            a, c = a * m % mod, (c * m + b) % mod
        m, b, r = m * m % mod, (b * m + b) % mod, r >> 1
    return a, c


def _by_cyclic_subgroup(n: int, brute: Callable) -> Iterator[tuple[hol.HolElem2, object]]:
    """Every element h of Hol(Z_{2^n}), in the order of _all_elements, with
    brute(g, o) for the first g in that order that generates <h> and the
    length o of its walk to the identity: each g^k with gcd(k, o) = 1 shares
    g's order and cycle type (a g-cycle stays one cycle), so one walk serves."""
    mod = 1 << n
    fives = [pow(5, g, mod) for g in range(mod >> 2)]
    multipliers = fives + [mod - u for u in fives]  # by (beta, gamma), as under each alpha
    shared: list = [None] * (1 << (2 * n - 1))  # at (a >> 1) * 2^n + c, one width
    for h, a in zip(_all_elements(n), cycle(multipliers)):
        value = shared[a >> 1 << n | h.alpha * a % mod]
        if value is None:
            walk = [*takewhile((1, 0).__ne__, _powers(h)), (1, 0)]
            value = brute(h, len(walk))
            for k, (a, c) in enumerate(walk, 1):
                if gcd(k, len(walk)) == 1:
                    shared[a >> 1 << n | c] = value
        yield h, value


def _regular_member(mod: int, elements: Collection[hol.Pair]) -> Callable[[Perm], bool]:
    """Membership in a regular set of pairs, tested on permutations of
    Z_mod.  The set has exactly one pair (t, m) with t*m = x for each
    point x, so a permutation C lies in it iff C is the permutation of
    the pair for x = C(0); that table is built once per set."""
    by_image = {t * m % mod: (t, m) for t, m in elements}
    return lambda p: hol.pair_perm(mod, by_image[p.images[0]]) == p


def _generates(mod: int, perms: list[Perm], contains: Callable[[Perm], bool]) -> bool:
    """Whether the permutations lie in the regular subgroup R that
    ``contains`` tests and generate it.  They then generate a subgroup of
    R, which is semiregular, so its order is the size of its orbit of 0:
    all of Z_mod exactly when it is R."""
    return all(map(contains, perms)) and len(orbits(mod, perms)[0]) == mod


def _witness_holds(rec: rc.ClassificationRecord, in_rep: Callable[[Perm], bool]) -> bool:
    """Whether w^-1 H w = R, for the record's subgroup H, its witness w
    and the representative R that ``in_rep`` tests, checked on the
    permutations of H's generators: they lie in the record's pairs, and
    their conjugates by w generate R."""
    mod = 1 << rec.n
    w = hol.pair_perm(mod, rec.conjugator)
    images = [hol.pair_perm(mod, g).conjugated_by(w) for g in rec.generators]
    return set(rec.generators) <= rec.elements and _generates(mod, images, in_rep)


def _normal_in_hol(rec: rc.ClassificationRecord) -> Optional[bool]:
    """Whether the record's regular subgroup R is normal in Hol(Z_{2^n}),
    checked on permutations: each generator of R, conjugated by each of
    (1, 1), (0, -1) and (0, 5), which generate the holomorph, lies in R.
    None when the record's generators do not generate R."""
    mod = 1 << rec.n
    in_r = _regular_member(mod, rec.elements)
    gens = [hol.pair_perm(mod, g) for g in rec.generators]
    if not _generates(mod, gens, in_r):
        return None
    return all(
        in_r(g.conjugated_by(hol.pair_perm(mod, h)))
        for h in ((1, 1), (0, mod - 1), (0, 5))
        for g in gens
    )


def _census(n: int) -> Iterator[dict]:
    """The full census of Z_n as a stream of records, one automorphism
    search per class under units and complementation
    (circulant.scan_range)."""
    return circ_mod.scan_range(n, 0, circ_mod.census_size(n))


def _range_param(params: dict, key: str, default: tuple[int, int]) -> tuple[int, int]:
    value = params.get(key)
    if value is None:
        return default
    if isinstance(value, int):
        return value, value
    return value


def _tally(
    groups: Iterable[tuple[dict, Iterable]], key: str, evidence: Optional[list] = None
) -> tuple[str, list]:
    """Status and evidence of a claim that walks its cases in groups,
    each a label and the items it yields.  Each item is one case,
    counted under ``key``: None when it holds, else its fault, which is
    reported after the group's label.  A claim that checked nothing
    fails: an empty range proves nothing.  A pass reports ``evidence``,
    read once the walk is done (the walk may fill it in), by default
    the count under ``key``."""
    bad = []
    checked = 0
    for label, items in groups:
        for fault in items:
            checked += 1
            if fault is not None:
                bad.append(label | fault)
    if bad:
        return "fail", bad
    if not checked:
        return "fail", [{key: 0, "why": "nothing was checked"}]
    return "pass", evidence or [{key: checked}]


def _sweep(
    params: dict, default: tuple[int, int], key: str, faults: Callable[[int], Iterable]
) -> tuple[str, list, dict]:
    """Run a per-width claim over the widths of ``--n`` (``default`` when
    unset) that have a normal form, in increasing order: the cases
    ``faults(n)`` yields are the group of width n."""
    lo, hi = _range_param(params, "n", default)
    widths = range(max(lo, rc.MIN_WIDTH), hi + 1)
    status, evidence = _tally((({"n": n}, faults(n)) for n in widths), key)
    return status, evidence, {"n": (lo, hi)}


def _over_moduli(
    params: dict,
    default: tuple[int, ...],
    key: str,
    faults: Callable[[int], Iterable],
    divisor: Optional[int] = None,
    evidence: Optional[list] = None,
) -> tuple[str, list, dict]:
    """Run a claim over its moduli (``default`` when unset), in order:
    the cases ``faults(n)`` yields are the group of modulus n.  Under
    the hypothesis "``divisor`` does not divide n" only the moduli
    inside it are checked, each other one is noted after the evidence,
    and the claim is skipped when no modulus is inside it."""
    moduli = tuple(params.get("moduli", default))
    inside = [n for n in moduli if divisor is None or n % divisor]
    outside = [
        {"modulus": n, "why": f"divisible by {divisor}"} for n in moduli if n not in inside
    ]
    if outside and not inside:
        return "skipped", outside, {"moduli": moduli}
    status, evidence = _tally((({"n": n}, faults(n)) for n in inside), key, evidence)
    return status, evidence + outside, {"moduli": moduli}


# claim runners


def _run_pow5_congruences(params: dict) -> tuple[str, list, dict]:
    def faults(n: int) -> Iterator[Optional[dict]]:
        for t in range(n - 2):
            v = nt.pow5(1 << t, n)
            holds = v % (1 << (t + 2)) == 1 and v % (1 << (t + 3)) != 1
            yield None if holds else {"t": t, "value": v}

    return _sweep(params, (3, 20), "powers", faults)


def _run_sum_valuations(params: dict) -> tuple[str, list, dict]:
    samples = params.get("samples", DEFAULT_SAMPLES)
    seed = params.get("seed", DEFAULT_SEED)
    rng = random.Random(seed)
    mod = 1 << SUM_WIDTH
    summary = {"samples": samples, "width": SUM_WIDTH, "truncated": 0}
    ratios: dict[int, int] = {}  # 5^(-j) by j, for this run only

    def faults() -> Iterator[Optional[dict]]:
        for _ in range(samples):
            k = rng.randint(1, SUM_LENGTH_MAX)
            j = rng.randint(1, SUM_LENGTH_MAX)
            q = ratios.get(j)
            if q is None:
                q = ratios[j] = nt.pow5(-j, SUM_WIDTH)  # 5^(-kj) is q^k
            m = nt.geom_series(q, k, mod)
            ke = k + (k & 1)  # the valuation of L holds at even lengths
            alt = nt.geom_series(-q, ke, mod)
            sums = ("M", m, k, k & -k), ("L", alt, ke, 2 * (ke & -ke) * (j & -j))
            for name, r, length, want in sums:
                if r == 0:  # a zero residue only bounds the valuation from below
                    summary["truncated"] += 1
                holds = r == 0 or r & -r == want
                yield None if holds else {"sum": name, "k": length, "j": j, "two_part": r & -r}
            holds = m * (1 - q) % mod == (1 - pow(q, k, mod)) % mod
            yield None if holds else {"sum": "identity", "k": k, "j": j}

    status, evidence = _tally([({}, faults())], "samples", [summary])
    return status, evidence, {"samples": samples, "width": SUM_WIDTH, "seed": seed}


def _run_power_closed_form(params: dict) -> tuple[str, list, dict]:
    samples = params.get("samples", 2000)
    seed = params.get("seed", DEFAULT_SEED)
    rng = random.Random(seed)  # one stream across the sampled widths

    def faults(n: int) -> Iterator[Optional[dict]]:
        if n <= 5:  # every element, every r up to 2^n, to its first wrong power
            for h in _all_elements(n):
                for r, pair in zip(range(1, (1 << n) + 1), _powers(h)):
                    if _affine_pair(hol.power(h, r)) != pair:
                        yield {"h": str(h), "r": r}
                        break
                    yield None
            return
        for _ in range(samples):
            h = hol.HolElem2(
                n, rng.randrange(1 << n), rng.randrange(2), rng.randrange(1 << (n - 2))
            )
            r = rng.randint(1, 1 << n)
            holds = _affine_pair(hol.power(h, r)) == _power_by_squaring(h, r)
            yield None if holds else {"h": str(h), "r": r}

    status, evidence, used = _sweep(params, (3, 8), "comparisons", faults)
    return status, evidence, used | {"samples": samples, "seed": seed}


def _run_order_closed_form(params: dict) -> tuple[str, list, dict]:
    return _sweep(params, (3, 7), "elements", lambda n: (
        None if hol.order(h) == brute else {"h": str(h)}
        for h, brute in _by_cyclic_subgroup(n, lambda g, o: o)
        if not h.is_identity()
    ))


def _run_conj_normal_form(params: dict) -> tuple[str, list, dict]:
    def faults(n: int) -> Iterator[Optional[dict]]:
        for h in _all_elements(n):
            nf, rho = hol.conj_normal_form(h)
            if rho.alpha != 0:
                yield {"h": str(h), "why": "conjugator translates"}
            elif rho.then(h).then(rho.inverse()) != nf:
                yield {"h": str(h), "why": "witness fails"}
            elif nf.alpha & (nf.alpha - 1):
                yield {"h": str(h), "why": "alpha not a 2-power"}
            else:
                yield None

    return _sweep(params, (3, 6), "elements", faults)


def _run_point_stabilizer(params: dict) -> tuple[str, list, dict]:
    def faults(n: int) -> Iterator[Optional[dict]]:
        mod = 1 << n
        pairs = hol.PairArith(mod)
        for g in range(mod):
            g1, g2 = hol.point_stabilizer(g, n)
            got = pairs.closure([g1.pair, g2.pair])
            want = {(t, m) for t, m in pairs.elements if (g + t) * m % mod == g}
            holds = got == want and len(got) == 1 << (n - 1)
            yield None if holds else {"g": g, "order": len(got)}

    return _sweep(params, (3, 6), "points", faults)


def _run_semiregular_classification(params: dict) -> tuple[str, list, dict]:
    return _sweep(params, (3, 7), "elements", lambda n: (
        None if rc.is_semiregular_closed_form(h) == brute else {"h": str(h)}
        for h, brute in _by_cyclic_subgroup(
            n, lambda g, o: len(set(g.as_perm().cycle_lengths())) == 1
        )
    ))


def _run_regular_classification(params: dict) -> tuple[str, list, dict]:
    lo, hi = _range_param(params, "n", (3, 5))
    faults: list[Optional[dict]] = []  # one item per case, in order
    evidence = []
    reps: dict[int, tuple[rc.ClassificationRecord, ...]] = {}  # the widths that hold
    for n in range(rc.MIN_WIDTH, rc.ENUM_MAX_N + 1):
        try:
            recs = rc.representatives(n)
        except RuntimeError as exc:
            faults.append({"n": n, "why": str(exc)})
            continue
        reps[n] = recs
        evidence.append(
            {"n": n, "representatives": [r.rtype.label() for r in recs]}
        )
    for n in range(lo, hi + 1):
        if n not in reps:
            faults.append({"n": n, "why": "no checked representatives to match"})
            continue
        try:
            records = rc.enumerate_regular_subgroups(n)
        except RuntimeError as exc:  # a subgroup matched no representative, or two
            faults.append({"n": n, "why": str(exc)})
            continue
        in_rep = {rep.rtype: _regular_member(1 << n, rep.elements) for rep in reps[n]}
        per_type: dict[str, int] = {}
        for rec in records:
            label = rec.rtype.label()
            per_type[label] = per_type.get(label, 0) + 1
            holds = _witness_holds(rec, in_rep[rec.rtype])
            faults.append(None if holds else {"n": n, "type": label, "why": "bad witness"})
        # a class, under the first tag of coinciding representatives,
        # holds [Hol : N(R)] subgroups
        for rep, _ in rc.canonical_classes(reps[n]):
            label = rep.rtype.label()
            found = per_type.get(label, 0)
            holds = found == rc.normalizer_index(rep)
            faults.append(None if holds else {"n": n, "type": label, "subgroups": found})
        evidence.append({"n": n, "regular_subgroups": len(records), "classes": per_type})
    evidence.append({"n": 3, "coinciding_representatives": rc.coincidences(reps.get(3, ()))})
    status, evidence = _tally([({}, faults)], "regular_subgroups", evidence)
    return status, evidence, {"n": (lo, hi), "rep_n_max": rc.ENUM_MAX_N}


def _run_cyclic_normality(params: dict) -> tuple[str, list, dict]:
    def faults(n: int) -> Iterator[Optional[dict]]:
        try:
            records = rc.enumerate_regular_subgroups(n)
        except RuntimeError as exc:  # a subgroup matched no representative, or two
            yield {"why": str(exc)}
            return
        for rec in records:
            if rec.iso.kind == "cyclic":
                brute = _normal_in_hol(rec)
                closed = rc.is_normal_cyclic_regular_in_hol(rec.rtype, n)
                yield None if brute == closed else {"type": rec.rtype.label(), "brute": brute}

    return _sweep(params, (3, 6), "cyclic_subgroups", faults)


def _run_nnn_multiplier_corollary(params: dict) -> tuple[str, list, dict]:
    n = params.get("modulus", 16)
    k = (n & -n).bit_length() - 1
    if n != 1 << k or k < 4:
        return "skipped", [{"why": f"modulus {n} is not a 2-power with 2-part >= 16"}], {"modulus": n}
    needed = pow(5, 1 << (k - 4), n)
    # By Thm 1.3 no census graph is an antecedent, so the implication is
    # also checked on every multiplier group <-1, u>: each aut_G_S is one.
    groups = {
        tuple(sorted(grow([n - 1, u], lambda a, b: a * b % n, 1))) for u in range(1, n, 2)
    }
    faults = [  # the antecedent groups, then the nnn graphs
        None if needed in mults else {"multipliers": list(mults)}
        for mults in sorted(groups)
        if not all(c.normal_in_aut for c in circ_mod.cyclic_copies(n, mults))
    ]
    antecedents = len(faults)
    faults += [
        None if needed in circ_mod.aut_G_S(circ_mod.Circulant(n, frozenset(record["S"])))
        else {"S": record["S"]}
        for record in _census(n)
        if record["nnn"]
    ]
    summary = {
        "census": circ_mod.census_size(n),
        "nnn_graphs": len(faults) - antecedents,
        "multiplier_groups": len(groups),
        "antecedents": antecedents,
        "multiplier": needed,
    }
    status, evidence = _tally([({}, faults)], "antecedents", [summary])
    return status, evidence, {"modulus": n}


def _run_lex_bound(params: dict) -> tuple[str, list, dict]:
    k_max = params.get("k_max", 20)
    bad = []
    splits = 0
    for k in range(2, k_max + 1):
        for t in range(1, k):
            splits += 1
            value = circ_mod.lex_exponent(k, t)
            if value < 2 * k - 1:
                bad.append({"k": k, "t": t, "exponent": value})
            if (value == 2 * k - 1) != (t == k - 1):
                bad.append({"k": k, "t": t, "why": "equality off the boundary"})
    graph_checked = 0
    for n in params.get("moduli", (8, 16)):
        for record in _census(n):
            if record["w_subgroups"] and record["normal"]:
                bad.append({"n": n, "S": record["S"], "why": "coset-stable but normal"})
            graph_checked += 1
    if not bad and not (splits and graph_checked):
        # the claim is two statements, and each must have checked something
        bad = [{"splits": splits, "graphs": graph_checked, "why": "nothing was checked"}]
    evidence = bad or [{"k_max": k_max, "graphs": graph_checked}]
    return ("fail" if bad else "pass"), evidence, {"k_max": k_max}


def _run_y_forces_nonnormal(params: dict) -> tuple[str, list, dict]:
    def faults(n: int) -> Iterator[Optional[dict]]:
        for mask in range(circ_mod.census_size(n)):
            c = circ_mod.Circulant(n, circ_mod.connection_set(n, mask))
            if {s * 5 % n for s in c.conn} == c.conn:
                yield {"S": sorted(c.conn)} if circ_mod.is_normal_cayley(c) else None

    return _over_moduli(params, (8, 16), "five_stable_sets", faults)


def _run_centralizer_order(params: dict) -> tuple[str, list, dict]:
    grid = params.get("grid", ((2, 5), (3, 3), (5, 2), (7, 2)))

    def fault(p: int, k: int, m: int) -> Optional[dict]:
        n = p**k
        cent = hol.centralizer_in_aut(n, [m])
        if len(cent) != p ** (k - m):
            return {"order": len(cent)}
        if p == 2 and m == 1:
            # Z_{2^k}^* is not cyclic; the order check asked for all phi(2^k) units
            return None
        # some unit generates the whole group
        cyclic = any(len(grow([u], lambda a, b: a * b % n, 1)) == len(cent) for u in cent)
        return None if cyclic else {"why": "not cyclic"}

    groups = (
        ({"p": p, "k": k, "m": m}, [fault(p, k, m)])
        for p, k_max in grid for k in range(2, k_max + 1) for m in range(1, k + 1)
    )
    status, evidence = _tally(groups, "cases", [{"grid": list(grid)}])
    return status, evidence, {"grid": list(grid)}


def _run_centralizer_product(params: dict) -> tuple[str, list, dict]:
    def faults(n: int) -> Iterator[Optional[dict]]:
        parts = hol.prime_powers(n)
        for m_exps in product(*(range(1, k + 1) for _, k in parts)):
            cent = hol.centralizer_in_aut(n, m_exps)
            want = prod(p ** (k - m) for m, (p, k) in zip(m_exps, parts))
            sub_order = prod(p**m for m, (p, _) in zip(m_exps, parts))
            # want == n / |N|, the index of the subgroup being centralized
            holds = len(cent) == want == n // sub_order
            yield None if holds else {"m_exps": list(m_exps), "order": len(cent), "want": want}

    return _over_moduli(params, (12, 36, 40, 45), "cases", faults)


def _theta_census(n: int, witness: Callable, parameters: dict) -> tuple[str, list, dict]:
    """Build ``witness(c)`` on every set of the Z_n census: each witness
    must verify, and its graph must not be normal.  ``parameters`` are
    the ones used, and a pass reports them with the witness and
    failed-precondition counts."""
    summary = {**parameters, "witnesses": 0, "preconditions_failed": 0}

    def faults() -> Iterator[Optional[dict]]:
        for mask in range(circ_mod.census_size(n)):
            c = circ_mod.Circulant(n, circ_mod.connection_set(n, mask))
            try:
                theta = witness(c)
            except circ_mod.WitnessVerificationError as exc:
                yield {"S": sorted(c.conn), "why": str(exc)}
                continue
            if theta is None:
                summary["preconditions_failed"] += 1
                continue
            summary["witnesses"] += 1
            normal = circ_mod.is_normal_cayley(c)
            yield {"S": sorted(c.conn), "why": "witness exists but graph normal"} if normal else None

    return (*_tally([({}, faults())], "witnesses", [summary]), parameters)


def _run_theta_odd(params: dict) -> tuple[str, list, dict]:
    n = params.get("modulus", 9)
    # the least odd prime whose square divides n (the primes come in order)
    p = next((q for q, k in hol.prime_powers(n) if q % 2 and k >= 2), None)
    if p is None:
        return "skipped", [{"why": f"no odd prime with square dividing {n}"}], {"modulus": n}
    return _theta_census(n, lambda c: circ_mod.theta_witness_p_odd(c, p), {"modulus": n, "p": p})


def _run_theta_2part(params: dict) -> tuple[str, list, dict]:
    n = params.get("modulus", 16)
    k = (n & -n).bit_length() - 1
    if k < 4:
        return "skipped", [{"why": f"2-part of {n} is below 16"}], {"modulus": n}
    return _theta_census(n, circ_mod.theta_witness_2part, {"modulus": n})


def _run_index_2power(params: dict) -> tuple[str, list, dict]:
    n = params.get("modulus", 12)
    if n % 8 == 0:
        return "skipped", [{"why": f"modulus {n} divisible by 8"}], {"modulus": n}
    scan = circ_mod.abelian_regular_scan(n)
    faults = (
        {"S": list(conn), "indices": list(indices)} if any(i & (i - 1) for i in indices) else None
        for conn, indices in scan
    )
    evidence = [{"modulus": n, "normal_circulants": len(scan)}]
    status, evidence = _tally([({}, faults)], "normal_circulants", evidence)
    return status, evidence, {"modulus": n}


def _run_unique_abelian(params: dict) -> tuple[str, list, dict]:
    evidence = []  # one entry per modulus checked, as its scan is read

    def faults(n: int) -> Iterator[Optional[dict]]:
        scan = circ_mod.abelian_regular_scan(n)
        evidence.append({"modulus": n, "normal_circulants": len(scan)})
        for conn, indices in scan:
            yield None if len(indices) == 1 else {"S": list(conn), "count": len(indices)}

    return _over_moduli(params, (9, 10), "normal_circulants", faults, divisor=4, evidence=evidence)


def _run_no_nnn_below_8(params: dict) -> tuple[str, list, dict]:
    return _over_moduli(params, (9, 10, 12), "circulants", lambda n: (
        {"S": record["S"]} if record["nnn"] else None for record in _census(n)
    ), divisor=8)


def _run_nnn_scan(params: dict) -> tuple[str, list, dict]:
    n = params.get("modulus", 8)
    faults = (
        {"S": record["S"], "mask": record["mask"]} if record["nnn"] else None
        for record in _census(n)
    )
    evidence = [{"modulus": n, "census": circ_mod.census_size(n), "nnn_graphs": 0}]
    status, evidence = _tally([({"n": n}, faults)], "circulants", evidence)
    return status, evidence, {"modulus": n}


REGISTRY: dict[str, Claim] = {
    c.claim_id: c
    for c in [
        Claim(
            "lem-3.1",
            "double congruence for 2-power exponents of 5 mod 2^n",
            _run_pow5_congruences,
            ("n",),
        ),
        Claim(
            "lem-3.2",
            "2-adic valuations of the geometric and alternating 5-power sums",
            _run_sum_valuations,
            ("samples", "seed"),
        ),
        Claim(
            "lem-3.3",
            "closed-form powers agree with repeated composition",
            _run_power_closed_form,
            ("n", "samples", "seed"),
        ),
        Claim(
            "lem-3.4",
            "closed-form element orders agree with brute-force orders",
            _run_order_closed_form,
            ("n",),
        ),
        Claim(
            "lem-3.5",
            "conjugation brings the translation part to its 2-part, with witness",
            _run_conj_normal_form,
            ("n",),
        ),
        Claim(
            "lem-3.10",
            "two stated generators span each point stabilizer, order 2^(n-1)",
            _run_point_stabilizer,
            ("n",),
        ),
        Claim(
            "thm-3.14",
            "closed-form semiregularity matches orbit-based semiregularity",
            _run_semiregular_classification,
            ("n",),
        ),
        Claim(
            "thm-1.4",
            "regular subgroups all match one canonical representative, with witness",
            _run_regular_classification,
            ("n",),
            rc.ENUM_MAX_N,
        ),
        Claim(
            "thm-3.4-normality",
            "cyclic regular subgroups normal in the holomorph iff translations or maximal twist",
            _run_cyclic_normality,
            ("n",),
            rc.ENUM_MAX_N,
        ),
        Claim(
            "cor-3.4",
            "a normal graph with a non-normal cyclic copy admits the quarter-twist multiplier",
            _run_nnn_multiplier_corollary,
            ("modulus",),
        ),
        Claim(
            "lem-lex",
            "wreath lower-bound exponent beats 2k-1; coset-stable sets are non-normal",
            _run_lex_bound,
        ),
        Claim(
            "lem-y-nonnormal",
            "connection sets stable under multiplier 5 give non-normal graphs",
            _run_y_forces_nonnormal,
        ),
        Claim(
            "lem-2.1",
            "pointwise stabilizer of the order-p^m subgroup has order p^(k-m)",
            _run_centralizer_order,
        ),
        Claim(
            "cor-2.3",
            "centralizer order is multiplicative over coprime coordinates",
            _run_centralizer_product,
        ),
        Claim(
            "lem-2.4-theta",
            "odd-prime coset-twist witnesses verify whenever their multiplier survives",
            _run_theta_odd,
            ("modulus",),
        ),
        Claim(
            "lem-2.6-2power",
            "abelian regular subgroups meet the translations at 2-power index",
            _run_index_2power,
            ("modulus",),
        ),
        Claim(
            "thm-2.7-unique",
            "normal circulants with modulus not divisible by 4 have one abelian regular subgroup",
            _run_unique_abelian,
        ),
        Claim(
            "thm-2.8-no8",
            "no normal/non-normal cyclic double role when 8 does not divide the modulus",
            _run_no_nnn_below_8,
        ),
        Claim(
            "thm-4.3-theta",
            "2-part coset-twist witnesses verify whenever their multiplier survives",
            _run_theta_2part,
            ("modulus",),
        ),
        Claim(
            "thm-1.3-scan",
            "full census: no circulant is normal and non-normal for cyclic copies",
            _run_nnn_scan,
            ("modulus",),
        ),
    ]
}
