import hashlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from holocirc import claims, cli, permgroup
from holocirc import regular_classify as rc
from holocirc.holomorph import HolElem2, PairArith, holomorph_group, pair_perm
from holocirc.permgroup import Perm, closure, is_normal_in, is_regular, iso_type
from holocirc.regular_classify import (
    RegularType,
    canonical_classes,
    enumerate_regular_subgroups,
    expected_intersection_exponent,
    gamma_regular_sets,
    intersection_with_translations,
    is_normal_cyclic_regular_in_hol,
    is_semiregular_closed_form,
    normalizer_index,
    pair_from_perm,
    representative,
    representative_generators,
    representative_types,
    representatives,
)
from table_engine import regular_subgroup_sets, searched_generators

# frozen by the exhaustive engines themselves (see test_counts_are_stable)
REGULAR_COUNTS = {3: 6, 4: 16, 5: 28, 6: 52, 7: 100}
CLASS_COUNTS = {3: 5, 4: 8, 5: 9, 6: 10, 7: 11}

# sha256 of the sorted-key JSON list of the gamma-function engine's records
ENUMERATED_SHA256 = {
    6: "2e8ee0c8427e4008d8a7fbd738076ade017f55b052c4ca84f120359a0ba1d8e7",
    7: "da7ce944e517d5462a1be1637e6e609fcf00e50c041ad10bac85ece3a5c3e9e1",
    8: "e764c23d0e2aadb5ae5b8eed91716956252f817350f616b9fd9f82bc985c5777",
}

CLASSIFY_GOLDEN = Path(__file__).parents[1] / "perfbench" / "golden" / "classify_n3-8.json"


@pytest.fixture
def fresh_engine():
    """Empty the per-width caches of representatives and enumerations, so
    a test that patches the engine's internals rebuilds them under its
    patches; emptied again afterwards, so nothing built under a patch
    outlives the test."""
    rc.representatives.cache_clear()
    rc.enumerate_regular_subgroups.cache_clear()
    yield
    rc.representatives.cache_clear()
    rc.enumerate_regular_subgroups.cache_clear()


def brute_semiregular(h):
    mod = h.modulus
    images = [h.act(g) for g in range(mod)]
    seen = [False] * mod
    sizes = set()
    for start in range(mod):
        if seen[start]:
            continue
        size, g = 0, start
        while not seen[g]:
            seen[g] = True
            size += 1
            g = images[g]
        sizes.add(size)
    return len(sizes) == 1


def all_elements(n):
    return [
        HolElem2(n, a, b, g)
        for a in range(1 << n)
        for b in (0, 1)
        for g in range(1 << (n - 2))
    ]


def test_regular_type_validation():
    with pytest.raises(ValueError):
        RegularType("nonsense")
    with pytest.raises(ValueError):
        RegularType("dihedral", t=1)
    with pytest.raises(ValueError):
        RegularType("twisted_cyclic")
    assert RegularType("twisted_cyclic", 2).label() == "twisted_cyclic(t=2)"
    assert RegularType("translations").index == 1


def test_semiregular_closed_form_examples():
    assert is_semiregular_closed_form(HolElem2(4, 2, 0, 1)) is True  # 2 < 4
    assert is_semiregular_closed_form(HolElem2(4, 4, 0, 1)) is False  # 4 < 4 fails
    for n in (3, 4, 5):
        assert is_semiregular_closed_form(HolElem2(n, 2, 1, 0)) is False
        assert is_semiregular_closed_form(HolElem2(n, 1, 1, 0)) is True


def test_semiregular_closed_form_exhaustive_small():
    for n in (3, 4, 5):
        for h in all_elements(n):
            assert is_semiregular_closed_form(h) == brute_semiregular(h), h


def test_semiregular_power_halving():
    # h semiregular iff h^(order/2) semiregular
    from holocirc.holomorph import order, power

    for n in (3, 4, 5, 6):
        for h in all_elements(n):
            if h.is_identity():
                continue
            half = power(h, order(h) // 2)
            assert brute_semiregular(h) == brute_semiregular(half)


def test_representative_generator_shapes():
    gens = representative_generators(RegularType("quaternion"), 5)
    assert [str(g) for g in gens] == ["a^2", "a*x*y^4"]
    # direct product at n = 4: 2 * 5^-1 = 2 * 13 = 10 mod 16
    gens = representative_generators(RegularType("direct_product"), 4)
    assert [str(g) for g in gens] == ["a^10*y", "a*x"]
    with pytest.raises(ValueError):
        representative_generators(RegularType("twisted_cyclic", 2), 4)
    with pytest.raises(ValueError):
        representative_generators(RegularType("modular"), 3)


@pytest.mark.parametrize(
    "rtype, n, message",
    [
        (RegularType("twisted_cyclic", 3), 5, "twist parameter 3 outside 0..2"),
        (RegularType("twisted_cyclic", 9), 5, "twist parameter 9 outside 0..2"),
        (RegularType("modular"), 3, "modular family is degenerate"),
        (RegularType("dihedral"), 2, "width must be >= 3"),
    ],
    ids=["twist-3-at-5", "twist-9-at-5", "modular-at-3", "width-2"],
)
def test_family_readers_reject_the_same_inputs(rtype, n, message):
    # both read one validated row, so neither answers where the other raises
    for reader in (representative_generators, expected_intersection_exponent):
        with pytest.raises(ValueError, match=message):
            reader(rtype, n)


def _records_digest(records):
    text = json.dumps([r.to_dict() for r in records], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _assert_matches_perm_group(rec):
    # the record's fields, computed on pairs, against the brute routes on
    # the permutation group of Z_{2^n} its pairs give
    sub = rec.perm_group()
    assert sub.degree == 1 << rec.n
    assert sub.generators == tuple(pair_perm(1 << rec.n, g) for g in rec.generators)
    assert is_regular(sub)
    assert rec.intersection_exponent == intersection_with_translations(sub)
    assert rec.iso == iso_type(sub.elements, sub.generators, Perm.then, Perm.order)


def test_records_match_their_perm_groups():
    for n in range(3, 9):
        for rec in representatives(n):
            _assert_matches_perm_group(rec)
    for n in range(3, 7):
        for rec in enumerate_regular_subgroups(n):
            _assert_matches_perm_group(rec)


def test_classification_builds_no_perm_group(monkeypatch, fresh_engine):
    # the classify path works on (t, m) pairs: no permutation closure and
    # no cycle walk on 2^n points, at any width
    def refuse(*args, **kwargs):
        raise AssertionError("the classification builds no Perm group")

    for name, module in list(sys.modules.items()):
        if name.startswith("holocirc") and getattr(module, "closure", None) is permgroup.closure:
            monkeypatch.setattr(module, "closure", refuse)
    monkeypatch.setattr(Perm, "cycle_lengths", refuse)
    out = io.StringIO()
    cli._emit(cli._classification(3, 8), "json", out)
    assert out.getvalue() == CLASSIFY_GOLDEN.read_text()
    assert _records_digest(enumerate_regular_subgroups(6)) == ENUMERATED_SHA256[6]


def test_representatives_all_widths():
    for n in range(3, 9):
        recs = representatives(n)
        for rec in recs:
            assert rec.n == n
            assert len(rec.elements) == 1 << n
            assert rec.intersection_exponent == expected_intersection_exponent(
                rec.rtype, n
            )
        labels = [r.rtype.label() for r in recs]
        assert labels[0] == "translations"
        assert ("modular" in labels) == (n >= 4)
        assert f"twisted_cyclic(t={n - 3})" in labels
        assert f"twisted_cyclic(t={n - 2})" not in labels


def test_dihedral_representative_example():
    rec = representative(RegularType("dihedral"), 4)
    assert len(rec.elements) == 16
    assert rec.iso.kind == "dihedral"
    assert rec.intersection_exponent == 2


def test_twisted_intersections():
    # intersection exponent 2^(n-t-2), e.g. <a*y> at n=4 meets at a^4
    rec = representative(RegularType("twisted_cyclic", 0), 4)
    assert rec.intersection_exponent == 4
    rec = representative(RegularType("twisted_cyclic", 1), 4)
    assert rec.intersection_exponent == 2


def test_representative_coincidences_only_at_3():
    def coincidences(n):
        return [[t.kind for t in g] for _, g in canonical_classes(representatives(n)) if len(g) > 1]

    assert coincidences(3) == [["direct_product", "quasidihedral"]]
    for n in (4, 5, 6):
        assert coincidences(n) == []


def test_counts_are_stable():
    for n, want in REGULAR_COUNTS.items():
        assert want == (6 if n == 3 else 3 * 2 ** (n - 2) + 4)
        records = enumerate_regular_subgroups(n)
        assert len(records) == want
        class_labels = {r.rtype.label() for r in records}
        assert len(class_labels) == CLASS_COUNTS[n]


def test_every_enumerated_subgroup_has_verified_conjugator():
    for n in (3, 4, 6):
        for rec in enumerate_regular_subgroups(n):
            sub = rec.perm_group()
            assert is_regular(sub)
            w = pair_perm(1 << n, rec.conjugator)
            rep = representative(rec.rtype, n)
            conj = frozenset(w.inverse().then(p).then(w) for p in sub.elements)
            assert conj == rep.perm_group().elements
            assert rec.intersection_exponent == intersection_with_translations(sub)


def test_intersection_is_conjugation_invariant_fact():
    for rec in enumerate_regular_subgroups(4):
        assert rec.intersection_exponent == expected_intersection_exponent(
            rec.rtype, 4
        )


def test_prune_loses_no_regular_subgroup():
    # in the reference engine
    pruned = regular_subgroup_sets(3, prune_semiregular=True)
    unpruned = regular_subgroup_sets(3, prune_semiregular=False)
    assert set(pruned) == set(unpruned)


def test_gamma_sets_equal_the_table_engine():
    # two exhaustive routes: gamma functions, and index-two coset growth
    # over the whole holomorph (the reference engine of the tests); the
    # same sets with the same generator tuples, and the records come out
    # in the order of the table engine's sorted sets
    for n in (3, 4, 5):
        table = regular_subgroup_sets(n)
        assert gamma_regular_sets(n) == table
        records = enumerate_regular_subgroups(n)
        want = sorted(table.items(), key=lambda kv: sorted(kv[0]))
        assert [(r.elements, r.generators) for r in records] == want


def test_gamma_sets_are_closed_regular_subgroups():
    # the engine checks each new point against its chosen points only;
    # here every set it returns is checked on all pairs of its elements,
    # and its generators on the closure they give
    for n in range(3, 7):
        mod = 1 << n
        arith = PairArith(mod)
        found = gamma_regular_sets(n)
        assert len(found) == REGULAR_COUNTS[n]
        for sub, gens in found.items():
            assert all(arith.then(a, b) in sub for a in sub for b in sub)
            assert len(sub) == mod
            assert {t * m % mod for t, m in sub} == set(range(mod))
            assert arith.closure(gens) == sub


def test_walk_equals_the_chain_search():
    # the greedy walk against the breadth-first search over every
    # index-two chain, on every regular subgroup of widths 3..7
    for n in range(3, 8):
        arith = PairArith(1 << n)
        found = gamma_regular_sets(n)
        assert len(found) == REGULAR_COUNTS[n]
        for sub in found:
            assert rc._grown_generators(arith, sub) == searched_generators(arith, sub), n


def test_every_walk_step_has_index_two():
    # each generator g the walk adds to H lies outside H, squares into H
    # and conjugates every element of H into H, and the last H is sub
    for n in range(3, 9):
        arith = PairArith(1 << n)
        then = arith.then
        for sub in gamma_regular_sets(n):
            gens = rc._grown_generators(arith, sub)
            h = arith.closure([])
            for k, g in enumerate(gens):
                gi = arith.inverse(g)
                assert g in sub and g not in h and then(g, g) in h
                assert all(then(then(gi, s), g) in h for s in h)
                grown = arith.closure(gens[: k + 1])
                assert len(grown) == 2 * len(h)
                h = grown
            assert h == sub


def test_claims_pass_enumerates_each_width_once(monkeypatch, capsys, fresh_engine):
    # the benchmark's claims pass in one process: verify all (thm-1.4 at
    # widths 3..5, thm-3.4-normality at 3..6), then classify --n 3..8,
    # which enumerates 3..5; every width goes through the engine once
    calls = []
    engine = rc.gamma_regular_sets

    def counted(n):
        calls.append(n)
        return engine(n)

    monkeypatch.setattr(rc, "gamma_regular_sets", counted)
    assert cli.main(["verify", "all", "--format", "ndjson"]) == 0
    assert cli.main(["classify", "--n", "3..8", "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == [3, 4, 5, 6]


def test_a_subgroup_the_matcher_cannot_place_fails_both_claims(monkeypatch, capsys, fresh_engine):
    # with the dihedral class unmatchable, the first dihedral subgroup of
    # each width matches no representative: that width's fault, named by
    # the subgroup's generators, and no traceback
    right = rc._conjugators
    monkeypatch.setattr(
        rc,
        "_conjugators",
        lambda arith, gens, rep: [] if rep.rtype.kind == "dihedral" else right(arith, gens, rep),
    )
    faults = {
        3: "subgroup [(1, 7), (4, 1), (2, 1)] matched 0 representatives",
        4: "subgroup [(1, 15), (8, 1), (4, 1), (2, 1)] matched 0 representatives",
        5: "subgroup [(1, 31), (16, 1), (8, 1), (4, 1), (2, 1)] matched 0 representatives",
    }
    report = claims.run_claim("thm-1.4", {"n": (4, 4)})
    assert (report.status, report.evidence) == ("fail", [{"n": 4, "why": faults[4]}])
    report = claims.run_claim("thm-3.4-normality", {"n": (3, 5)})
    assert (report.status, report.evidence) == (
        "fail", [{"n": n, "why": why} for n, why in faults.items()]
    )
    assert cli.main(["verify", "thm-1.4", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["evidence"] == [{"n": 4, "why": faults[4]}]
    assert captured.err.startswith("[fail] thm-1.4: ")
    assert "Traceback" not in captured.err


def _scan_conjugator(arith, gens, rep_set):
    # the reference matcher: the first w in (t, m) order, of all
    # 2^(2n-1) pairs, with w^-1 g w in the representative for each g
    for w in arith.elements:
        wi = arith.inverse(w)
        if all(arith.then(arith.then(wi, g), w) in rep_set for g in gens):
            return w
    return None


def test_closed_form_conjugator_matches_the_scan():
    for n in (3, 4, 5, 6):
        arith = PairArith(1 << n)
        classes = canonical_classes(representatives(n))
        found = gamma_regular_sets(n)
        records = enumerate_regular_subgroups(n)
        assert [r.elements for r in records] == sorted(found, key=sorted)
        for rec in records:
            scans = [
                (rep.rtype, w)
                for rep, _ in classes
                if (w := _scan_conjugator(arith, rec.generators, rep.elements))
            ]
            assert scans == [(rec.rtype, rec.conjugator)], (n, rec.rtype.label())


def test_normalizer_index_matches_a_brute_count():
    # |N(R)| over all 2^(2n-1) pairs w, conjugating every element of R
    for n in (3, 4, 5):
        arith = PairArith(1 << n)
        for rec in representatives(n):
            normalizer = 0
            for w in arith.elements:
                wi = arith.inverse(w)
                conj = {arith.then(arith.then(wi, h), w) for h in rec.elements}
                normalizer += conj == rec.elements
            assert normalizer_index(rec) * normalizer == len(arith.elements)


def test_thm_1_4_fails_on_a_missing_subgroup(monkeypatch):
    # one of the four direct-product subgroups of width 4 dropped: every
    # family is still met, but its class is short of [Hol : N(R)]
    enumerate_all = rc.enumerate_regular_subgroups

    def drop_one(n):
        records = enumerate_all(n)
        i = next(i for i, r in enumerate(records) if r.rtype.kind == "direct_product")
        return records[:i] + records[i + 1 :]

    assert claims.run_claim("thm-1.4", {"n": 4}).status == "pass"
    monkeypatch.setattr(rc, "enumerate_regular_subgroups", drop_one)
    report = claims.run_claim("thm-1.4", {"n": 4})
    assert report.status == "fail"
    assert report.evidence == [{"n": 4, "type": "direct_product", "subgroups": 3}]


def test_witness_check_rejects_mutated_records():
    # the generator check of thm-1.4 against three mutations: the identity
    # conjugator (wrong for every subgroup that is not its representative),
    # another class's representative, and the last generator dropped
    rejected_identity = {}
    for n in range(3, 7):
        classes = canonical_classes(representatives(n))
        in_rep = {rep.rtype: claims._regular_member(1 << n, rep.elements) for rep, _ in classes}
        rejected_identity[n] = 0
        for rec in enumerate_regular_subgroups(n):
            assert claims._witness_holds(rec, in_rep[rec.rtype])
            if rec.conjugator != (0, 1):
                assert not claims._witness_holds(replace(rec, conjugator=(0, 1)), in_rep[rec.rtype])
                rejected_identity[n] += 1
            for rtype, other in in_rep.items():
                if rtype != rec.rtype:
                    assert not claims._witness_holds(rec, other), (n, rec.rtype, rtype)
            dropped = replace(rec, generators=rec.generators[:-1])
            assert not claims._witness_holds(dropped, in_rep[rec.rtype])
    assert rejected_identity == {3: 1, 4: 8, 5: 19, 6: 42}


def test_normality_check_on_generators_matches_is_normal_in():
    # on every enumerated subgroup, the cyclic ones that thm-3.4-normality
    # checks among them; with its last generator dropped, none is checked
    for n in range(3, 8):
        ambient = holomorph_group(1 << n)
        for rec in enumerate_regular_subgroups(n):
            assert claims._normal_in_hol(rec) == is_normal_in(rec.perm_group(), ambient)
            dropped = replace(rec, generators=rec.generators[:-1])
            assert claims._normal_in_hol(dropped) is None


def test_classification_claims_build_no_perm_group(monkeypatch, capsys, fresh_engine):
    # thm-1.4 and thm-3.4-normality check their subgroups on the
    # permutations of generators: no permutation group on 2^n points
    def refuse(*args, **kwargs):
        raise AssertionError("the claim builds no permutation group")

    refused = {
        "closure": permgroup.closure,
        "from_elements": permgroup.from_elements,
        "is_normal_in": permgroup.is_normal_in,
        "holomorph_group": holomorph_group,
    }
    for name, module in list(sys.modules.items()):
        if name.startswith("holocirc"):
            for attr, func in refused.items():
                if getattr(module, attr, None) is func:
                    monkeypatch.setattr(module, attr, refuse)
    monkeypatch.setattr(rc.ClassificationRecord, "perm_group", refuse)
    for claim_id in ("thm-1.4", "thm-3.4-normality"):
        assert cli.main(["verify", claim_id, "--n", "3..8"]) == 0
    assert capsys.readouterr().err.count("[pass]") == 2


def test_canonical_rep_sets_are_the_representatives():
    # the matcher's pair sets, read from the representative records,
    # against the Perm-level closures of the literal generators
    for n in range(3, 9):
        want: dict = {}
        for rt in representative_types(n):
            gens = [h.as_perm() for h in representative_generators(rt, n)]
            perms = closure(gens, degree=1 << n).elements
            elems = frozenset(map(pair_from_perm, perms))
            want.setdefault(elems, []).append(rt)
        classes = canonical_classes(representatives(n))
        assert [(rep.elements, types) for rep, types in classes] == list(want.items()), n
        assert all(rep.rtype == types[0] for rep, types in classes)


def test_enumeration_range_errors():
    with pytest.raises(ValueError):
        enumerate_regular_subgroups(2)
    with pytest.raises(ValueError):
        enumerate_regular_subgroups(9)


def test_cyclic_normality_closed_form():
    assert is_normal_cyclic_regular_in_hol(RegularType("translations"), 5)
    assert is_normal_cyclic_regular_in_hol(RegularType("twisted_cyclic", 2), 5)
    assert not is_normal_cyclic_regular_in_hol(RegularType("twisted_cyclic", 0), 5)
    with pytest.raises(ValueError):
        is_normal_cyclic_regular_in_hol(RegularType("dihedral"), 5)
    with pytest.raises(ValueError):
        is_normal_cyclic_regular_in_hol(RegularType("twisted_cyclic", 3), 5)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize(
    "rtype", [RegularType("translations"), RegularType("twisted_cyclic", 0)],
    ids=["translations", "twist-0"],
)
def test_cyclic_normality_rejects_widths_below_3(rtype, n):
    # the width is checked before the family, as every other family reader does
    with pytest.raises(ValueError, match=f"width must be >= 3, got {n}"):
        is_normal_cyclic_regular_in_hol(rtype, n)


def test_twist_beyond_range_collapses_to_translations():
    # the generator a*y^(2^(n-2)) is just a: y has order 2^(n-2)
    n = 5
    h = HolElem2(n, 1, 0, 1 << (n - 2))
    assert h == HolElem2(n, 1, 0, 0)
    sub = closure([h.as_perm()])
    rep = representative(RegularType("translations"), n)
    assert sub.elements == rep.perm_group().elements


def test_pair_from_perm_roundtrip():
    h = HolElem2(5, 7, 1, 3)
    assert pair_from_perm(h.as_perm()) == h.pair == (7, h.multiplier)
    from holocirc.permgroup import Perm

    with pytest.raises(ValueError):
        pair_from_perm(Perm([0, 2, 1, 3]))  # multiplier 2 is not a unit
    with pytest.raises(ValueError):
        pair_from_perm(Perm([0, 1, 3, 2]))  # (0, 1) maps back to the identity


def test_record_serialization():
    rec = representative(RegularType("quaternion"), 4)
    d = rec.to_dict()
    assert d["type"] == "quaternion"
    assert d["generators"] == ["a^2", "a*x*y^2"]
    assert d["intersection_with_translations"] == "a^2"
    assert d["n"] == 4


@pytest.mark.parametrize("n", sorted(ENUMERATED_SHA256))
def test_enumerated_records_pinned(n):
    # records, generators and witnesses of the gamma-function engine,
    # which the classify golden file (widths 3..5 enumerated) does not cover
    assert _records_digest(enumerate_regular_subgroups(n)) == ENUMERATED_SHA256[n]
