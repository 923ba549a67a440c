import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import holocirc
import holocirc.circulant as circulant
import holocirc.regular_classify as rc
from holocirc import claims
from holocirc.cli import build_parser, main

EXPECTED_CLAIMS = {
    "lem-3.1",
    "lem-3.2",
    "lem-3.3",
    "lem-3.4",
    "lem-3.5",
    "lem-3.10",
    "thm-3.14",
    "thm-1.4",
    "thm-3.4-normality",
    "cor-3.4",
    "lem-lex",
    "lem-y-nonnormal",
    "lem-2.1",
    "cor-2.3",
    "lem-2.4-theta",
    "lem-2.6-2power",
    "thm-2.7-unique",
    "thm-2.8-no8",
    "thm-4.3-theta",
    "thm-1.3-scan",
}


def cli_env(env=None):
    """An environment for a ``python -m holocirc.cli`` child that imports
    the same holocirc as this test (installed or not) and sees no
    HOLOCIRC_* variable of the calling shell, only those in ``env``."""
    child_env = {k: v for k, v in os.environ.items() if not k.startswith("HOLOCIRC_")}
    src = os.path.dirname(os.path.dirname(holocirc.__file__))
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, child_env.get("PYTHONPATH")) if p
    )
    child_env.update(env or {})
    return child_env


def run_cli(*argv, env=None):
    """Run ``python -m holocirc.cli`` in a child set up by cli_env."""
    return subprocess.run(
        [sys.executable, "-m", "holocirc.cli", *argv],
        capture_output=True,
        text=True,
        env=cli_env(env),
    )


def test_registry_is_complete():
    assert set(claims.claim_ids()) == EXPECTED_CLAIMS
    for claim in claims.REGISTRY.values():
        assert claim.description


def test_run_claim_reports():
    report = claims.run_claim("lem-3.1", {"n": 12})
    assert report.status == "pass"
    assert report.evidence
    assert report.runtime >= 0
    d = report.to_dict()
    assert d["claim_id"] == "lem-3.1" and d["status"] == "pass"


def test_run_claim_unknown():
    with pytest.raises(KeyError):
        claims.run_claim("lem-0.0")


def test_selected_claims_pass_quickly():
    quick = {
        "lem-3.1": {},
        "lem-3.2": {"samples": 300},
        "lem-3.4": {"n": (3, 6)},
        "lem-3.5": {"n": (3, 4)},
        "lem-3.10": {"n": (3, 4)},
        "thm-3.14": {"n": (3, 4)},
        "lem-2.1": {},
        "cor-2.3": {"moduli": (12, 45)},
        "lem-2.4-theta": {"modulus": 9},
        "thm-2.7-unique": {"moduli": (9,)},
        "lem-y-nonnormal": {},  # moduli 8 and 16
        "lem-lex": {},  # integer bound to k=20 plus the Z_8/Z_16 graph side
        "thm-1.3-scan": {"modulus": 8},
    }
    for claim_id, params in quick.items():
        report = claims.run_claim(claim_id, params)
        assert report.status == "pass", (claim_id, report.evidence)


def test_nnn_multiplier_corollary_claim(monkeypatch):
    # a normal width-16 circulant carrying a non-normal cyclic copy would
    # have to admit multiplier 5; no census graph does (Thm 1.3), so the
    # implication is also checked on each multiplier group <-1, u>
    report = claims.run_claim("cor-3.4", {"modulus": 16})
    assert report.status == "pass"
    assert report.evidence == [
        {"census": 256, "nnn_graphs": 0, "multiplier_groups": 3, "antecedents": 1, "multiplier": 5}
    ]
    # the groups alone at width 32, with the 65,536-graph census left out
    monkeypatch.setattr(claims, "_census", lambda n: iter(()))
    report = claims.run_claim("cor-3.4", {"modulus": 32})
    assert report.status == "pass"
    assert report.evidence == [
        {"census": 65536, "nnn_graphs": 0, "multiplier_groups": 4, "antecedents": 2, "multiplier": 25}
    ]


def test_nnn_multiplier_corollary_fails_on_no_antecedent(monkeypatch):
    # every copy normal: no group and no graph is an antecedent
    monkeypatch.setattr(
        circulant, "cyclic_copies", lambda n, mults: (circulant.CyclicCopy((1, 1), True, True),)
    )
    report = claims.run_claim("cor-3.4", {"modulus": 16})
    assert report.status == "fail"
    assert report.evidence == [{"antecedents": 0, "why": "nothing was checked"}]


def test_nnn_multiplier_corollary_fails_on_a_group_without_the_multiplier(monkeypatch):
    # <-1> = {1, 15} gets a non-normal copy, and 5 is not in it
    copies = circulant.cyclic_copies

    def stub(n, mults):
        mults = sorted(mults)
        if mults == [1, n - 1]:
            return (circulant.CyclicCopy((1, 1), False, True),)
        return copies(n, mults)

    monkeypatch.setattr(circulant, "cyclic_copies", stub)
    report = claims.run_claim("cor-3.4", {"modulus": 16})
    assert report.status == "fail"
    assert report.evidence[0] == {"multipliers": [1, 15]}
    # the census graphs with aut_G_S = <-1> now read as nnn, and fail too
    assert all(set(bad) == {"S"} for bad in report.evidence[1:])


def test_cli_verify_pass_and_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "lem-3.1", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload[0]["status"] == "pass"


def test_cli_unknown_claim_is_usage_error(capsys):
    assert main(["verify", "no-such-claim"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage error: unknown claim 'no-such-claim'; known: " + ", ".join(claims.claim_ids())
    ]


def test_cli_bound_exceeded_is_exit_3():
    assert main(["scan", "--modulus", "64"]) == 3
    assert main(["verify", "thm-1.3-scan", "--modulus", "40"]) == 3


@pytest.mark.parametrize(
    "argv, line",
    [
        (["verify", "lem-3.1", "--n", "3..9"], "width 9 exceeds bound 8 (use --force)"),
        (["verify", "thm-1.3-scan", "--modulus", "40"], "modulus 40 exceeds bound 32 (use --force)"),
        (["classify", "--n", "3..5"], "width 5 exceeds bound 4 (use --force)"),
        (["graph", "--modulus", "40", "--set", "1,39"], "modulus 40 exceeds bound 32 (use --force)"),
        (["scan", "--modulus", "40"], "modulus 40 exceeds bound 32 (use --force)"),
        (["verify", "lem-3.1", "--n", "3..65", "--force"], "width 65 exceeds bound 64"),
    ],
    ids=["verify-n", "verify-modulus", "classify", "graph", "scan", "verify-n-forced"],
)
def test_cli_each_command_reports_its_bound_once(monkeypatch, capsys, tmp_path, argv, line):
    if argv[0] == "classify":
        # classify checks --n against 3..8 first, so its width bound
        # shows only when the config sets it below 8
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_hol_width": 4}))
        monkeypatch.setenv("HOLOCIRC_CONFIG", str(cfg))
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line]
    assert captured.out == ""


def test_cli_env_cap(tmp_path):
    proc = run_cli(
        "scan",
        "--modulus",
        "12",
        env={"HOLOCIRC_MAX_DEGREE": "10", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 3
    assert "exceeds bound 10" in proc.stderr


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_degree": 10}))
    proc = run_cli(
        "scan",
        "--modulus",
        "12",
        env={"HOLOCIRC_CONFIG": str(cfg), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 3
    assert "exceeds bound 10" in proc.stderr


def test_cli_force_overrides_env_cap():
    # --force lifts the bound for the whole invocation, including the
    # library's own check inside the scan
    proc = run_cli(
        "scan", "--modulus", "12", "--force", env={"HOLOCIRC_MAX_DEGREE": "10"}
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 64
    proc = run_cli(
        "verify", "lem-y-nonnormal", "--force", env={"HOLOCIRC_MAX_DEGREE": "10"}
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_config_cap_reaches_claims(tmp_path):
    # lem-y-nonnormal builds 16-vertex graphs through the library, which
    # must apply the config file's bound just as it applies the variable's
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_degree": 10}))
    for env in ({"HOLOCIRC_CONFIG": str(cfg)}, {"HOLOCIRC_MAX_DEGREE": "10"}):
        proc = run_cli("verify", "lem-y-nonnormal", env=env)
        assert proc.returncode == 3, (env, proc.stderr)
        assert "16 vertices exceeds the bound 10" in proc.stderr


def test_cli_bound_met_inside_a_claim_hints_at_force(monkeypatch, capsys):
    # the library's own check stops the claim; --force would lift it
    monkeypatch.setenv("HOLOCIRC_MAX_DEGREE", "10")
    assert main(["verify", "lem-y-nonnormal"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "resource bound: 16 vertices exceeds the bound 10 (use --force)"
    ]


def test_cli_force_keeps_a_higher_configured_width_bound(monkeypatch, capsys, tmp_path):
    # --force raises the width bound to 64 and never lowers the config
    # file's; above that bound --force would not help, so no hint
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_hol_width": 100}))
    monkeypatch.setenv("HOLOCIRC_CONFIG", str(cfg))
    assert main(["verify", "lem-3.1", "--n", "3..70", "--force"]) == 0
    capsys.readouterr()
    assert main(["verify", "lem-3.1", "--n", "3..101", "--force"]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["width 101 exceeds bound 100"]
    assert captured.out == ""


def test_cli_parallel_scan_above_the_default_bound():
    # 64 masks of Z_34, above the default bound of 32, in two pool
    # batches: the workers start outside the CLI's scope, so each batch
    # carries the lifted bound to them
    argv = ("scan", "--modulus", "34", "--force", "--shard", "0/2048")
    parallel = run_cli(*argv, "--jobs", "2")
    assert parallel.returncode == 0, parallel.stderr
    serial = run_cli(*argv, "--jobs", "1")
    assert serial.returncode == 0, serial.stderr
    assert parallel.stdout == serial.stdout
    assert len(parallel.stdout.splitlines()) == 64
    digest = hashlib.sha256(parallel.stdout.encode()).hexdigest()
    assert digest == "162346eeda687a8cea54f006f874f72d55e3dcf10f7e20e7ec4a8960b8254b84"
    unforced = run_cli("scan", "--modulus", "34", "--jobs", "2", "--shard", "0/2048")
    assert unforced.returncode == 3
    assert "modulus 34 exceeds bound 32" in unforced.stderr
    assert unforced.stdout == ""


def test_cli_missing_config_is_usage_error(tmp_path):
    missing = tmp_path / "no-such-config.json"
    proc = run_cli("scan", "--modulus", "8", env={"HOLOCIRC_CONFIG": str(missing)})
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"usage error: HOLOCIRC_CONFIG {missing}")
    assert proc.stdout == ""


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    # a claim id is checked against the registry before it runs, so a
    # KeyError from inside a command is a fault of the program, not of
    # its input, and must not leave as exit code 2
    def broken(*args):
        raise KeyError(4)

    monkeypatch.setattr(circulant, "scan_range", broken)
    with pytest.raises(KeyError):
        main(["scan", "--modulus", "8"])


def test_cli_reversed_range_is_usage_error():
    # a reversed range checks nothing, so it must not pass or print records
    for argv, message in (
        (("verify", "lem-3.4", "--n", "9..3"), "reversed range '9..3': 9 > 3"),
        (("classify", "--n", "5..3"), "reversed range '5..3': 5 > 3"),
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.splitlines() == [f"usage error: {message}"]
        assert proc.stdout == ""


def test_cli_width_below_3_is_usage_error():
    # widths 1 and 2 have no normal form: lem-3.3 used to pass having
    # compared nothing, lem-3.4 died on a negative shift count
    for argv in (
        ("verify", "lem-3.3"), ("verify", "lem-3.4"), ("verify", "thm-3.14"), ("classify",)
    ):
        proc = run_cli(*argv, "--n", "1..2")
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.splitlines() == [
            "usage error: --n '1..2' starts below 3, the smallest width with a normal form"
        ]
        assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv, widths, covers",
    [
        pytest.param(["verify", "thm-1.4"], "8..9", "claim thm-1.4 checks", id="thm-1.4-8..9"),
        pytest.param(
            ["verify", "thm-3.4-normality"], "9", "claim thm-3.4-normality checks",
            id="thm-3.4-normality-9",
        ),
        pytest.param(["classify"], "8..9", "classify covers", id="classify-8..9"),
    ],
)
def test_cli_width_above_the_enumeration_is_usage_error(monkeypatch, capsys, argv, widths, covers):
    # --force lifts the width bound, yet regular subgroups are enumerated
    # at widths 3..8 only: thm-1.4 used to spend seconds on width 8 and
    # then fail width 9, thm-3.4-normality to build Hol(Z_512) first
    def never(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(claims.hol, "holomorph_group", never)
    monkeypatch.setattr(rc, "representatives", never)
    monkeypatch.setattr(rc, "enumerate_regular_subgroups", never)
    assert main([*argv, "--n", widths, "--force"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"usage error: --n {widths!r} ends above 8: {covers} widths 3..8"
    ]
    # no claim of the run starts, not even those before the too-wide one
    assert main(["verify", "all", "--n", widths, "--force"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "claim_id, params, key",
    [
        ("lem-3.3", {"n": (1, 2)}, "comparisons"),
        ("lem-3.3", {"n": (6, 6), "samples": 0}, "comparisons"),
        ("lem-3.4", {"n": (1, 2)}, "elements"),
        ("lem-3.5", {"n": (1, 2)}, "elements"),
        ("thm-3.14", {"n": (1, 2)}, "elements"),
        ("thm-3.4-normality", {"n": (1, 2)}, "cyclic_subgroups"),
        ("lem-3.1", {"n": (1, 2)}, "powers"),
        ("lem-3.10", {"n": (1, 2)}, "points"),
        ("lem-3.2", {"samples": 0}, "samples"),
        ("lem-2.1", {"grid": ()}, "cases"),
        ("cor-2.3", {"moduli": ()}, "cases"),
        ("lem-y-nonnormal", {"moduli": ()}, "five_stable_sets"),
        ("thm-2.7-unique", {"moduli": ()}, "normal_circulants"),
        ("thm-2.8-no8", {"moduli": ()}, "circulants"),
        ("thm-1.4", {"n": (5, 4)}, "regular_subgroups"),
    ],
)
def test_claim_that_checked_nothing_fails(claim_id, params, key):
    report = claims.run_claim(claim_id, params)
    assert report.status == "fail"
    assert report.evidence == [{key: 0, "why": "nothing was checked"}]


@pytest.mark.parametrize(
    "claim_id, stub, value, key",
    [
        ("lem-2.4-theta", "theta_witness_p_odd", None, "witnesses"),
        ("thm-4.3-theta", "theta_witness_2part", None, "witnesses"),
        ("lem-2.6-2power", "abelian_regular_scan", [], "normal_circulants"),
    ],
)
def test_census_claim_that_found_nothing_fails(monkeypatch, claim_id, stub, value, key):
    # every modulus yields a witness (the empty connection set has one)
    # and a normal circulant, so the census is stubbed to find none
    monkeypatch.setattr(circulant, stub, lambda *args: value)
    report = claims.run_claim(claim_id)
    assert report.status == "fail"
    assert report.evidence == [{key: 0, "why": "nothing was checked"}]


@pytest.mark.parametrize(
    "claim_id, moduli, status, evidence",
    [
        (
            "thm-2.8-no8",
            (9, 16),
            "pass",
            [{"circulants": 16}, {"modulus": 16, "why": "divisible by 8"}],
        ),
        (
            "thm-2.7-unique",
            (12, 9),
            "pass",
            [{"modulus": 9, "normal_circulants": 12}, {"modulus": 12, "why": "divisible by 4"}],
        ),
        (
            "thm-2.8-no8",
            (16, 24),
            "skipped",
            [{"modulus": 16, "why": "divisible by 8"}, {"modulus": 24, "why": "divisible by 8"}],
        ),
        ("thm-2.7-unique", (12,), "skipped", [{"modulus": 12, "why": "divisible by 4"}]),
    ],
)
def test_claims_check_each_modulus_inside_their_hypothesis(claim_id, moduli, status, evidence):
    # one modulus outside the hypothesis used to skip the whole run and
    # drop the moduli already checked
    report = claims.run_claim(claim_id, {"moduli": moduli})
    assert (report.status, report.evidence) == (status, evidence)
    assert report.parameters == {"moduli": moduli}


@pytest.mark.parametrize(
    "params, splits, graphs",
    [
        ({"moduli": (), "k_max": 1}, 0, 0),
        ({"moduli": (), "k_max": 3}, 3, 0),
        ({"moduli": (8,), "k_max": 1}, 0, 16),
    ],
)
def test_lem_lex_fails_when_either_statement_checked_nothing(params, splits, graphs):
    report = claims.run_claim("lem-lex", params)
    assert report.status == "fail"
    assert report.evidence == [{"splits": splits, "graphs": graphs, "why": "nothing was checked"}]
    report = claims.run_claim("lem-lex", {"moduli": (8,), "k_max": 3})
    assert (report.status, report.evidence) == ("pass", [{"k_max": 3, "graphs": 16}])


def test_cli_lem_3_1_checks_exactly_the_given_widths():
    # it used to read only the top of the range and check widths 3..8
    proc = run_cli("verify", "lem-3.1", "--n", "7..8")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["parameters"] == {"n": [7, 8]}
    assert report["evidence"] == [{"powers": 5 + 6}]  # t in 0..n-3 per width


def test_cli_lem_3_2_rejects_n():
    # lem-3.2 checks one fixed width; --n used to be ignored
    proc = run_cli("verify", "lem-3.2", "--n", "7..8")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "usage error: claim lem-3.2 does not read --n; it reads --samples, --seed"
    ]
    assert proc.stdout == ""


def test_cli_unread_samples_and_seed_are_usage_errors():
    # only lem-3.2 and lem-3.3 draw samples; elsewhere the flags did nothing
    for flag in ("--samples", "--seed"):
        proc = run_cli("verify", "lem-3.10", "--n", "3", flag, "5")
        assert proc.returncode == 2, (flag, proc.stderr)
        assert proc.stderr.splitlines() == [
            f"usage error: claim lem-3.10 does not read {flag}; it reads --n"
        ]
        assert proc.stdout == ""


def test_verify_all_passes_each_claim_only_its_flags(monkeypatch):
    seen = {}

    def recorder(claim_id):
        def runner(params):
            seen[claim_id] = params
            return "pass", [{"cases": 1}], params

        return runner

    registry = {
        cid: claims.Claim(cid, "records its parameters", recorder(cid), flags)
        for cid, flags in (("reads-n", ("n",)), ("reads-seed", ("samples", "seed")), ("reads-none", ()))
    }
    monkeypatch.setattr(claims, "REGISTRY", registry)
    argv = ["verify", "all", "--n", "3..4", "--modulus", "8", "--samples", "5", "--seed", "7"]
    assert main(argv) == 0
    assert seen == {
        "reads-n": {"n": (3, 4)},
        "reads-seed": {"samples": 5, "seed": 7},
        "reads-none": {},
    }


def test_conj_normal_form_claim_counts_elements():
    report = claims.run_claim("lem-3.5", {"n": (3, 4)})
    assert report.status == "pass"
    assert report.evidence == [{"elements": 32 + 128}]


def test_cli_non_integer_bound_names_its_source(tmp_path):
    proc = run_cli("scan", "--modulus", "8", env={"HOLOCIRC_MAX_DEGREE": "abc"})
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "usage error: HOLOCIRC_MAX_DEGREE must be an integer, got 'abc'"
    ]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_degree": 3.5}))
    proc = run_cli("scan", "--modulus", "8", env={"HOLOCIRC_CONFIG": str(cfg)})
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "usage error: config max_degree must be an integer, got 3.5"
    ]
    # a bound below 1 admits no graph and no width: a usage error too
    proc = run_cli("scan", "--modulus", "8", env={"HOLOCIRC_MAX_DEGREE": "0"})
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "usage error: HOLOCIRC_MAX_DEGREE must be at least 1, got 0"
    ]
    for key, value in (("max_degree", -5), ("max_hol_width", -1)):
        cfg.write_text(json.dumps({key: value}))
        proc = run_cli("scan", "--modulus", "8", env={"HOLOCIRC_CONFIG": str(cfg)})
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"usage error: config {key} must be at least 1, got {value}"
        ]
    # --force lifts the bounds only after every setting is read and checked
    for argv, setting, message in [
        (("graph", "--modulus", "8", "--set", "1,7"), {"HOLOCIRC_MAX_DEGREE": "abc"},
         "HOLOCIRC_MAX_DEGREE must be an integer, got 'abc'"),
        (("scan", "--modulus", "8"), {"HOLOCIRC_MAX_DEGREE": "0"},
         "HOLOCIRC_MAX_DEGREE must be at least 1, got 0"),
        (("scan", "--modulus", "8"), {"max_degree": 3.5},
         "config max_degree must be an integer, got 3.5"),
        (("scan", "--modulus", "8"), {"max_degree": -5},
         "config max_degree must be at least 1, got -5"),
        (("scan", "--modulus", "8"), {"max_hol_width": -1},
         "config max_hol_width must be at least 1, got -1"),
        (("verify", "lem-3.1", "--n", "3..4"), {"max_hol_width": "x"},
         "config max_hol_width must be an integer, got 'x'"),
    ]:
        env = setting
        if "HOLOCIRC_MAX_DEGREE" not in setting:
            cfg.write_text(json.dumps(setting))
            env = {"HOLOCIRC_CONFIG": str(cfg)}
        proc = run_cli(*argv, "--force", env=env)
        assert proc.returncode == 2, (argv, setting)
        assert proc.stderr.splitlines() == [f"usage error: {message}"]
        assert proc.stdout == ""
    # the config's max_degree is checked also where the variable wins
    cfg.write_text(json.dumps({"max_degree": "x"}))
    for force in ((), ("--force",)):
        proc = run_cli(
            "scan", "--modulus", "8", *force,
            env={"HOLOCIRC_MAX_DEGREE": "10", "HOLOCIRC_CONFIG": str(cfg)},
        )
        assert proc.returncode == 2, force
        assert proc.stderr.splitlines() == [
            "usage error: config max_degree must be an integer, got 'x'"
        ]


def test_cli_scan_ndjson_deterministic(tmp_path):
    a = tmp_path / "a.ndjson"
    b = tmp_path / "b.ndjson"
    assert main(["scan", "--modulus", "9", "--out", str(a)]) == 0
    assert main(["scan", "--modulus", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    records = [json.loads(line) for line in a.read_text().splitlines()]
    assert len(records) == 16
    assert [r["mask"] for r in records] == list(range(16))
    assert all(r["nnn"] is False for r in records)


def test_cli_scan_shard_equals_slice(tmp_path):
    full = tmp_path / "full.ndjson"
    shard0 = tmp_path / "s0.ndjson"
    shard1 = tmp_path / "s1.ndjson"
    assert main(["scan", "--modulus", "9", "--out", str(full)]) == 0
    assert main(["scan", "--modulus", "9", "--shard", "0/2", "--out", str(shard0)]) == 0
    assert main(["scan", "--modulus", "9", "--shard", "1/2", "--out", str(shard1)]) == 0
    assert shard0.read_text() + shard1.read_text() == full.read_text()
    assert len(shard0.read_text().splitlines()) == 8


def test_cli_scan_jobs_matches_serial(tmp_path):
    serial = tmp_path / "serial.ndjson"
    parallel = tmp_path / "par.ndjson"
    assert main(["scan", "--modulus", "8", "--out", str(serial)]) == 0
    assert main(["scan", "--modulus", "8", "--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


# sha256 of the Z_16 census, perfbench/golden/census16.ndjson
CENSUS16_SHA256 = "56a5623507d9a0f591d84a6f3da1cf024653674b3f7b416cfa14ae995f3d6fdf"


def test_cli_scan_16_jobs_matches_serial(tmp_path):
    # every split deals whole orbits to the workers, and the bytes of
    # the concatenated shards must not depend on the split.  Above one
    # job only the pool size and its window change, so every --jobs
    # value scans the whole range and the splits run at 1 and 2 jobs.
    for jobs in (1, 2, 3, 4):
        whole = tmp_path / f"{jobs}.ndjson"
        assert main(["scan", "--modulus", "16", "--jobs", str(jobs), "--out", str(whole)]) == 0
        assert hashlib.sha256(whole.read_bytes()).hexdigest() == CENSUS16_SHA256, jobs
    serial = tmp_path / "1.ndjson"
    for jobs in (1, 2):
        for shards in (2, 3, 7):
            pieces = []
            for shard in range(shards):
                out = tmp_path / f"{jobs}-{shards}-{shard}.ndjson"
                argv = ["scan", "--modulus", "16", "--jobs", str(jobs),
                        "--shard", f"{shard}/{shards}", "--out", str(out)]
                assert main(argv) == 0
                pieces.append(out.read_bytes())
            assert b"".join(pieces) == serial.read_bytes(), (jobs, shards)


@pytest.mark.parametrize(
    "fmt, connected_only",
    [("json", False), ("text", False), ("ndjson", True), ("json", True)],
)
def test_cli_scan_streamed_formats_match_whole_list(tmp_path, fmt, connected_only):
    # --connected-only never searches a disconnected mask, and must give
    # the connected records of the full census
    records = [r for r in circulant.scan_range(16, 0, 256) if r["connected"] or not connected_only]
    if fmt == "json":
        want = json.dumps(records, indent=2, sort_keys=True) + "\n"
    elif fmt == "text":
        want = "".join(
            " ".join(f"{k}={json.dumps(v, sort_keys=True)}" for k, v in r.items()) + "\n"
            for r in records
        )
    else:
        want = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    flags = ["--connected-only"] if connected_only else []
    for jobs in (1, 3):
        out = tmp_path / f"{jobs}.{fmt}"
        argv = ["scan", "--modulus", "16", "--format", fmt, "--jobs", str(jobs), *flags]
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text() == want, jobs


def test_cli_scan_empty_json_is_an_empty_array(tmp_path):
    out = tmp_path / "empty.json"
    # shard 0/3 of Z_4 is the empty set alone, which is not connected
    argv = ["scan", "--modulus", "4", "--shard", "0/3", "--connected-only", "--format", "json"]
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_text() == json.dumps([], indent=2) + "\n"


def test_cli_scan_flushes_each_record_before_the_next_search(monkeypatch):
    events = []

    class Spy:
        def write(self, text):
            events.append(("write", text))

        def flush(self):
            events.append(("flush", None))

    search = circulant.automorphism_group

    def logged(circ):
        events.append(("search", sorted(circ.conn)))
        return search(circ)

    monkeypatch.setattr(circulant, "automorphism_group", logged)
    monkeypatch.setattr(sys, "stdout", Spy())
    assert main(["scan", "--modulus", "16"]) == 0
    kinds = [kind for kind, _ in events]
    second_search = [i for i, kind in enumerate(kinds) if kind == "search"][1]
    assert kinds[:second_search] == ["search", "write", "flush"]
    assert json.loads(events[1][1])["mask"] == 0
    assert kinds.count("flush") == 256


def test_cli_scan_stops_cleanly_when_the_reader_closes():
    proc = subprocess.Popen(
        [sys.executable, "-m", "holocirc.cli", "scan", "--modulus", "16", "--jobs", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert json.loads(first)["mask"] == 0
    assert err.decode().splitlines() == ["output closed by its reader; stopped early"]


def test_cli_scan_connected_only(tmp_path):
    out = tmp_path / "c.ndjson"
    assert main(["scan", "--modulus", "8", "--connected-only", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records and all(r["connected"] for r in records)


def test_cli_classify(tmp_path):
    out = tmp_path / "cls.json"
    assert main(["classify", "--n", "3", "--format", "json", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    reps = [r for r in records if r.get("role") == "representative"]
    found = [r for r in records if r.get("role") == "enumerated"]
    notes = [r for r in records if r.get("role") == "coincidence"]
    assert len(reps) == 6 and len(found) == 6
    assert notes and notes[0]["types"] == [["direct_product", "quasidihedral"]]
    assert main(["classify", "--n", "9"]) == 2


def test_classify_width_bounds_come_from_regular_classify(monkeypatch, capsys):
    # the usage check and the --n help both read rc's bounds
    monkeypatch.setattr(rc, "MIN_WIDTH", 4)
    monkeypatch.setattr(rc, "ENUM_MAX_N", 6)
    for widths, line in (
        ("3", "--n '3' starts below 4, the smallest width with a normal form"),
        ("4..7", "--n '4..7' ends above 6: classify covers widths 4..6"),
    ):
        assert main(["classify", "--n", widths]) == 2
        assert capsys.readouterr().err == f"usage error: {line}\n"
    assert main(["classify", "--help"]) == 0
    assert "width or range, 4..6" in capsys.readouterr().out


def test_cli_text_format(capsys):
    assert main(["verify", "lem-3.1", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "claim_id" in out and "lem-3.1" in out


def test_cli_graph_command(tmp_path):
    out = tmp_path / "graph.json"
    edges = tmp_path / "edges.txt"
    code = main(
        [
            "graph",
            "--modulus", "16",
            "--set", "1,3,13,15",
            "--format", "json",
            "--out", str(out),
            "--edges", str(edges),
        ]
    )
    assert code == 0
    record = json.loads(out.read_text())[0]
    assert record["normal"] is True and record["nnn"] is False
    assert record["aut_G_S"] == [1, 15]
    lines = edges.read_text().splitlines()
    assert lines[0] == "0 1" and len(lines) == 32  # 16 * 4 / 2 edges
    # invalid connection set (not inverse-closed) is a usage error
    assert main(["graph", "--modulus", "8", "--set", "1,2"]) == 2
    assert main(["graph", "--modulus", "64", "--set", "1,63"]) == 3


# sha256 of the concatenated stdout of `graph --modulus n --set S` over the
# census of Z_n in mask order, captured before the verdict moved to int
# pairs; it pins the order of the copies and their first-met generators
GRAPH_CENSUS_SHA256 = {
    3: "3fd055c1c03e786efe3fd45b8876c3c7084cce91e4c72d734e4ed4103d57cbd6",
    4: "a73f8530b923619527c92d6ba2c735c75d10c22a5ef301dcc82e90902f7769db",
    5: "f4df8c8328a584e6244e6a241a895893d541473c2a85fb8eefbee052a7be36d9",
    6: "09769c8e8a6aadeeb4e630607fad598b23af9aca742d5d6e0745d663f475389d",
    7: "5c6506da8283cd4d6dd657f623ca673f92501d54ffcc9491cee7540a06fee2dc",
    8: "b301b159b543c380aeadbc212c1e12c501652ee54cf5a8e69733b052d851dfd5",
    9: "ba4c97a6480ed6d7aaedaf5db19094742cd8b2d105946712b68474d961f0ccca",
    10: "7823ff798755fac2fe052a11e3d28ff719186bc2126ac95ed5f8c5d3f37bb2e7",
    11: "f5d0baca33ab9247b29af0a33a2524e6f6096ab2f7f9690834001e3557e618d0",
    12: "d9544f60c39b7fb8fb3f49c9fb9392821620548dfff0a0272852820555f55484",
    13: "49702ca180f296c927629aa355dab1b1a1a45c6452580331c6be294e6e77dcce",
    14: "eea186c73e2f4ba71610b96060f910337cd00d8c3650f06a2ab5ca376a4a6a07",
    15: "ee37cd834496eb784d8cc34c8febfb8127b907d5feb79736563deb2489dfbe69",
    16: "213c81853e474432bb85ab6942e328f0c7936b35269dc12a74f7784e3c732d15",
}


def test_cli_graph_output_pinned(capsys):
    digests = {}
    for n in GRAPH_CENSUS_SHA256:
        h = hashlib.sha256()
        for mask in range(circulant.census_size(n)):
            conn = sorted(circulant.connection_set(n, mask))
            assert main(["graph", "--modulus", str(n), "--set", ",".join(map(str, conn))]) == 0
            h.update(capsys.readouterr().out.encode())
        digests[n] = h.hexdigest()
    assert digests == GRAPH_CENSUS_SHA256


@pytest.mark.parametrize(
    "claim_id, modulus, searches",
    [
        pytest.param(claim_id, modulus, searches, id=claim_id)
        for claim_id, modulus, searches in [
            ("thm-1.3-scan", 16, 44),
            ("cor-3.4", 16, 44),
            ("lem-2.6-2power", 12, 24),
        ]
    ],
)
def test_census_claims_search_once_per_orbit(monkeypatch, claim_id, modulus, searches):
    # the 256 connection sets of Z_16 fall into 44 classes under units and
    # complementation, and the 64 of Z_12 into 24; the claims used to
    # search every mask
    calls = []
    search = circulant.automorphism_group

    def counted(circ):
        calls.append(circ.conn)
        return search(circ)

    monkeypatch.setattr(circulant, "automorphism_group", counted)
    assert main(["verify", claim_id, "--modulus", str(modulus)]) == 0
    assert len(calls) == searches


def test_lem_3_3_report_reproduces_from_its_parameters(monkeypatch):
    # a closed form that is wrong for odd r makes the evidence list the
    # sampled cases, so it shows which seed drew them
    power = claims.hol.power
    monkeypatch.setattr(
        claims.hol, "power", lambda h, r: power(h, r + 1) if r & 1 else power(h, r)
    )
    report = claims.run_claim("lem-3.3", {"n": (6, 6), "samples": 5, "seed": 7})
    assert report.status == "fail"
    assert report.parameters == {"n": (6, 6), "samples": 5, "seed": 7}
    again = claims.run_claim("lem-3.3", report.parameters)
    assert again.to_dict() == report.to_dict()
    other = claims.run_claim("lem-3.3", {"n": (6, 6), "samples": 5})
    assert other.parameters["seed"] == claims.DEFAULT_SEED
    assert other.evidence != report.evidence


def test_powers_match_repeated_composition_exhaustive():
    # the integer route of lem-3.3 and lem-3.4 against the normal-form
    # product it replaced and against (t, m) pair composition
    for n in range(3, 6):
        mod = 1 << n
        pairs = claims.hol.PairArith(mod)
        for h in claims._all_elements(n):
            acc, aff = claims.hol.HolElem2.identity(n), pairs.identity
            for r, pair in zip(range(1, mod + 1), claims._powers(h)):
                acc, aff = acc.then(h), pairs.then(aff, h.pair)
                assert pair == (acc.multiplier, acc.alpha * acc.multiplier % mod), (h, r)
                assert pair == (aff[1], aff[0] * aff[1] % mod), (h, r)


def test_lem_3_3_exhaustive_branch_fails_on_a_power_wrong_at_the_top(monkeypatch):
    # wrong only at r = 2^n, the last step of the exhaustive widths; the
    # odd-r test above covers the sampled widths
    power = claims.hol.power
    monkeypatch.setattr(
        claims.hol, "power", lambda h, r: power(h, r + 1) if r == h.modulus else power(h, r)
    )
    report = claims.run_claim("lem-3.3", {"n": (3, 5)})
    assert report.status == "fail"
    # h^(2^n + 1) = h differs from the identity for every h but the identity
    assert len(report.evidence) == (8 * 2 * 2 - 1) + (16 * 2 * 4 - 1) + (32 * 2 * 8 - 1)
    assert all(e["r"] == 1 << e["n"] for e in report.evidence)


def test_lem_3_10_fails_on_a_wrong_stabilizer_at_one_point(monkeypatch):
    # the generators of the stabilizer of 4 given at 3: a group of the
    # right order, but not the stabilizer of 3
    stabilizer = claims.hol.point_stabilizer
    monkeypatch.setattr(
        claims.hol,
        "point_stabilizer",
        lambda g, n: stabilizer(g + 1, n) if (g, n) == (3, 4) else stabilizer(g, n),
    )
    report = claims.run_claim("lem-3.10", {"n": (3, 5)})
    assert report.status == "fail"
    assert report.evidence == [{"n": 4, "g": 3, "order": 8}]


def test_lem_3_4_fails_on_a_wrong_order(monkeypatch):
    order = claims.hol.order
    monkeypatch.setattr(claims.hol, "order", lambda h: order(h) * (2 if h.gamma else 1))
    report = claims.run_claim("lem-3.4", {"n": (3, 4)})
    assert report.status == "fail"
    # exactly the elements with gamma > 0: 8 * 2 * 1 at width 3, 16 * 2 * 3 at 4
    assert len(report.evidence) == 16 + 96
    assert {"n": 3, "h": "y"} in report.evidence


def test_power_by_squaring_matches_repeated_composition():
    for n in range(3, 7):
        for h in claims._all_elements(n):
            for r, pair in zip(range(1, (1 << n) + 1), claims._powers(h)):
                assert claims._power_by_squaring(h, r) == pair, (h, r)


def test_brute_values_shared_over_a_cyclic_subgroup_match_each_element(monkeypatch):
    # the brute values lem-3.4 and thm-3.14 compare, at every element of
    # widths 3..7, against the per-element references of the acceptance
    # suite and of the semiregularity tests
    from test_acceptance import _brute_order
    from test_regular_classify import brute_semiregular

    inverses = {1 << n: {u: pow(u, -1, 1 << n) for u in range(1, 1 << n, 2)} for n in range(3, 8)}
    shared = claims._by_cyclic_subgroup
    compared = []
    monkeypatch.setattr(
        claims,
        "_by_cyclic_subgroup",
        lambda n, brute: (compared.append(pair) or pair for pair in shared(n, brute)),
    )
    for claim_id, reference in [
        ("lem-3.4", lambda h: _brute_order(h, inverses[h.modulus])),
        ("thm-3.14", brute_semiregular),
    ]:
        compared.clear()
        assert claims.run_claim(claim_id, {"n": (3, 7)}).status == "pass"
        assert len(compared) == sum(1 << (2 * n - 1) for n in range(3, 8)) == 10912
        for h, value in compared:
            assert value == reference(h), (claim_id, h)


def test_brute_values_are_computed_once_per_cyclic_subgroup():
    for n in range(3, 6):
        subgroups = set()
        for h in claims._all_elements(n):
            walk, g = {h}, h
            while not g.is_identity():
                g = g.then(h)
                walk.add(g)
            subgroups.add(frozenset(walk))
        walked = []
        for _ in claims._by_cyclic_subgroup(n, lambda g, o: walked.append(g) or o):
            pass
        assert len(walked) == len(subgroups), n


@pytest.mark.parametrize(
    "claim_id, module, name, wrong",
    [
        ("lem-3.4", claims.hol, "order", lambda order, h: 2 * order(h)),
        ("thm-3.14", claims.rc, "is_semiregular_closed_form", lambda closed, h: not closed(h)),
        ("lem-3.3", claims.hol, "power", lambda power, h, r: power(h, r + 1)),
    ],
    ids=["lem-3.4", "thm-3.14", "lem-3.3"],
)
def test_element_claims_fail_on_a_closed_form_wrong_at_a_covered_generator(
    monkeypatch, claim_id, module, name, wrong
):
    # wrong only at g = h^3 for h = a*x*y, of order 16: a generator of <h>
    # that the walk from h covers first, so no walk starts at g
    h = claims.hol.HolElem2(5, 1, 1, 1)
    g = h.then(h).then(h)
    elements = claims._all_elements(5)
    assert elements.index(h) < elements.index(g)
    right = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda x, *r: wrong(right, x, *r) if x == g else right(x, *r)
    )
    report = claims.run_claim(claim_id, {"n": (5, 5)})
    assert report.status == "fail"
    named = {"n": 5, "h": str(g), **({"r": 1} if claim_id == "lem-3.3" else {})}
    assert report.evidence == [named]


def test_lem_3_3_sampled_widths_share_one_stream(monkeypatch):
    # width 7 draws where width 6 stopped, so its faults are not those of
    # width 7 checked alone
    power = claims.hol.power
    monkeypatch.setattr(
        claims.hol, "power", lambda h, r: power(h, r + 1) if r & 1 else power(h, r)
    )
    both = claims.run_claim("lem-3.3", {"n": (6, 7), "samples": 5, "seed": 7}).evidence
    alone = claims.run_claim("lem-3.3", {"n": (7, 7), "samples": 5, "seed": 7}).evidence
    assert alone and all(e["n"] == 7 for e in alone)
    assert [e for e in both if e["n"] == 7] != alone
    assert [e for e in both if e["n"] == 6] == claims.run_claim(
        "lem-3.3", {"n": (6, 6), "samples": 5, "seed": 7}
    ).evidence


def test_lem_3_3_sampled_branch_fails_on_a_wrong_cube(monkeypatch):
    # h^3 is the first power that squaring composes from two parts
    power = claims.hol.power
    monkeypatch.setattr(
        claims.hol, "power", lambda h, r: power(h, r + 1) if r == 3 else power(h, r)
    )
    report = claims.run_claim("lem-3.3", {"n": (6, 7), "samples": 500})
    assert report.status == "fail"
    assert report.evidence and all(e["r"] == 3 for e in report.evidence)


@pytest.mark.parametrize(
    "claim_id, widths, key, cases",
    [
        ("lem-3.1", (4, 5), "powers", 2 + 3),  # n - 2 per width
        ("lem-3.3", (4, 5), "comparisons", 2**11 + 2**14),  # 2^(3n-1)
        ("lem-3.3", (5, 6), "comparisons", 2**14 + 2000),  # exhaustive, then sampled
        ("lem-3.4", (4, 5), "elements", 2**7 - 1 + 2**9 - 1),  # 2^(2n-1) - 1
        ("lem-3.5", (4, 5), "elements", 2**7 + 2**9),  # 2^(2n-1)
        ("thm-3.14", (4, 5), "elements", 2**7 + 2**9),
        ("lem-3.10", (4, 5), "points", 2**4 + 2**5),  # 2^n
        ("thm-3.4-normality", (4, 5), "cyclic_subgroups", 2**2 + 2**3),  # 2^(n-2)
    ],
)
def test_sweep_counts_every_case_of_each_width(claim_id, widths, key, cases):
    report = claims.run_claim(claim_id, {"n": widths})
    assert (report.status, report.evidence) == ("pass", [{key: cases}])
    assert report.parameters["n"] == widths


def test_lem_3_1_fails_on_a_wrong_power_at_one_width(monkeypatch):
    # 5^(2^1) mod 2^5 given as 1: it is 1 mod 2^(t+3) too
    pow5 = claims.nt.pow5
    monkeypatch.setattr(
        claims.nt, "pow5", lambda k, n: 1 if (k, n) == (2, 5) else pow5(k, n)
    )
    report = claims.run_claim("lem-3.1", {"n": (3, 6)})
    assert report.status == "fail"
    assert report.evidence == [{"n": 5, "t": 1, "value": 1}]
    assert list(report.evidence[0]) == ["n", "t", "value"]


@pytest.mark.parametrize(
    "wrong, why",
    [
        (lambda h, nf, rho: (nf, claims.hol.HolElem2(h.n, 1, 0, 0)), "conjugator translates"),
        (lambda h, nf, rho: (claims.hol.HolElem2.identity(h.n), rho), "witness fails"),
        (lambda h, nf, rho: (h, claims.hol.HolElem2.identity(h.n)), "alpha not a 2-power"),
    ],
    ids=["translates", "witness", "alpha"],
)
def test_lem_3_5_fails_on_a_wrong_normal_form_at_one_element(monkeypatch, wrong, why):
    # a^3 at width 4: each wrong answer passes the checks before its own
    target = claims.hol.HolElem2(4, 3, 0, 0)
    right = claims.hol.conj_normal_form
    monkeypatch.setattr(
        claims.hol,
        "conj_normal_form",
        lambda h: wrong(h, *right(h)) if h == target else right(h),
    )
    report = claims.run_claim("lem-3.5", {"n": (3, 5)})
    assert report.status == "fail"
    assert report.evidence == [{"n": 4, "h": "a^3", "why": why}]
    assert list(report.evidence[0]) == ["n", "h", "why"]


def test_thm_3_4_normality_fails_on_a_wrong_family(monkeypatch):
    # twisted_cyclic(t=1) occurs from width 4: once there, at the maximal
    # twist (normal), and twice at width 5 (not normal)
    family = rc.RegularType("twisted_cyclic", 1)
    right = rc.is_normal_cyclic_regular_in_hol
    monkeypatch.setattr(
        rc,
        "is_normal_cyclic_regular_in_hol",
        lambda rtype, n: (not right(rtype, n)) if rtype == family else right(rtype, n),
    )
    report = claims.run_claim("thm-3.4-normality", {"n": (3, 5)})
    assert report.status == "fail"
    fault = {"type": "twisted_cyclic(t=1)"}
    assert report.evidence == [
        {"n": 4, **fault, "brute": True},
        {"n": 5, **fault, "brute": False},
        {"n": 5, **fault, "brute": False},
    ]
    assert all(list(e)[0] == "n" for e in report.evidence)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["scan", "--modulus", "8", "--jobs", "0"], "--jobs"),
        (["scan", "--modulus", "8", "--jobs", "-2"], "--jobs"),
        (["verify", "lem-3.1", "--jobs", "0"], "--jobs"),
        (["scan", "--modulus", "8", "--shard", "abc"], "--shard"),
        (["scan", "--modulus", "8", "--shard", "1/x"], "--shard"),
        (["scan", "--modulus", "8", "--shard", "2/2"], "--shard"),
    ],
)
def test_cli_bad_jobs_or_shard_is_usage_error(capsys, argv, flag):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"argument {flag}:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["classify", "--n", "3..x"], "--n"),
        (["verify", "lem-3.1", "--n", "..5"], "--n"),
        (["graph", "--modulus", "8", "--set", "1,x"], "--set"),
    ],
)
def test_cli_malformed_integer_names_its_flag(capsys, argv, flag):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: {flag} expects ")
    assert repr(argv[-1]) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("count", ["0", "-5", "x"])
def test_cli_samples_below_1_is_usage_error(capsys, count):
    # lem-3.2 used to draw no sample and report pass
    assert main(["verify", "lem-3.2", "--samples", count]) == 2
    captured = capsys.readouterr()
    assert "argument --samples: expected an integer of at least 1" in captured.err
    assert captured.out == ""


def _subparsers(parser):
    """The {command: parser} map of ``parser``'s one subparsers action."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _declared(parser):
    return [
        (a.option_strings, a.dest, a.default, a.type, a.choices, a.required, a.help)
        for a in parser._actions
    ]


COMMANDS = ("verify", "classify", "graph", "scan")


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_declares_what_the_full_parser_does(command):
    built = _subparsers(build_parser(command))
    assert list(built) == [command]
    assert _declared(built[command]) == _declared(_subparsers(build_parser())[command])


def _full_parser_output(capsys, argv):
    """Exit code, stdout and stderr of the parser that builds all four
    commands, run on ``argv``."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "--help"], 0),
        (["classify", "--help"], 0),
        (["graph", "--help"], 0),
        (["scan", "--help"], 0),
        (["scan"], 2),
        (["scan", "--shard", "1/x"], 2),
        (["scan", "--modulus", "8", "extra"], 2),  # the top-level usage line
        (["verify"], 2),
        (["classify"], 2),
        (["graph", "--modulus", "8"], 2),
    ],
)
def test_one_command_parser_prints_what_the_full_parser_does(monkeypatch, capsys, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == _full_parser_output(capsys, argv)
    assert (captured.out if code == 0 else captured.err).startswith("usage: holocirc ")


@pytest.mark.parametrize(
    "argv, code, message",
    [
        ([], 2, "the following arguments are required: command"),
        (["bogus"], 2, "argument command: invalid choice: 'bogus'"),
        (["--help"], 0, "{verify,classify,graph,scan}"),
    ],
)
def test_cli_without_a_command(capsys, argv, code, message):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert message in (captured.out if code == 0 else captured.err)
    if argv == ["--help"]:
        assert all(f"    {name} " in captured.out for name in COMMANDS)


# sha256 of the `verify <id> --format ndjson` stdout of the claims whose
# brute-force routes read reduced elements directly, as computed before
# those routes were reworked
CLAIM_DIGESTS = {
    "lem-3.3": "b288bcef146d0650af093b3255ea9ad8785f84b85932136ef78fcaa0cf83637b",
    "lem-3.4": "328a3d13f973488921ba8db868c6540a827feddbd14cc1937519b46754e19311",
    "lem-3.10": "2c817e44c5b0e69eecf76003355df434a260fba8abb23b007218ed6e999dc046",
    "thm-3.14": "bca83ebb935b9fee6d604be5b1150daa487263e6eee9a717f84ee39c537ab94a",
}


@pytest.mark.parametrize("claim_id", sorted(CLAIM_DIGESTS))
def test_claim_reports_pinned(capsys, claim_id):
    assert main(["verify", claim_id, "--format", "ndjson"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLAIM_DIGESTS[claim_id]


@pytest.mark.parametrize(
    "argv",
    [["scan", "--modulus", "1"], ["scan", "--modulus", "0"], ["verify", "thm-1.3-scan", "--modulus", "1"]],
)
def test_cli_census_modulus_below_2_is_usage_error(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("usage error: modulus must be >= 2, got ")


def test_cli_jobs_1_accepted_by_verify_and_classify():
    assert main(["verify", "lem-3.1", "--n", "3", "--jobs", "1"]) == 0
    assert main(["classify", "--n", "3", "--jobs", "1"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "cor-3.4", "--modulus", "0"],
        ["verify", "cor-3.4", "--modulus", "-16"],
        ["verify", "lem-2.4-theta", "--modulus", "0"],
        ["verify", "thm-4.3-theta", "--modulus", "1"],
    ],
)
def test_cli_verify_modulus_below_2_is_usage_error(capsys, argv):
    # not a shift-count error, and not a "skipped" report with exit 0
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: modulus must be >= 2, got {argv[-1]}\n"
    assert captured.out == ""


def test_cli_graph_rejects_jobs(capsys):
    assert main(["graph", "--modulus", "8", "--set", "1,7", "--jobs", "4"]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --jobs 4" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["scan", "--modulus", "8"], "--out"),
        (["classify", "--n", "3"], "--out"),
        (["verify", "lem-3.1"], "--out"),
        (["graph", "--modulus", "8", "--set", "1,7"], "--out"),
        (["graph", "--modulus", "8", "--set", "1,7", "--out", os.devnull], "--edges"),
    ],
)
def test_cli_unopenable_output_is_usage_error(capsys, tmp_path, argv, flag):
    path = str(tmp_path / "missing" / "records")
    assert main([*argv, flag, path]) == 2
    captured = capsys.readouterr()
    # one line, before any claim report or scan summary reaches stderr
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"usage error: cannot open {flag} {path!r}")
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()


class Received:
    """A stand-in stdout that keeps what has been flushed to it: the text
    a reader of the stream has received so far."""

    def __init__(self):
        self.written = self.received = ""

    def write(self, text):
        self.written += text

    def flush(self):
        self.received = self.written


def _records_received(text, fmt):
    """The complete records in a stream cut right after a flush (for
    ``json``, an array not yet closed)."""
    if fmt == "json":
        return json.loads(text + "\n]") if text else []
    if fmt == "ndjson":
        return [json.loads(line) for line in text.splitlines()]
    return text.splitlines()


@pytest.mark.parametrize("fmt", ["json", "ndjson", "text"])
def test_cli_verify_writes_each_report_before_the_next_claim(monkeypatch, fmt):
    ids = claims.claim_ids()
    started = []  # what the reader had received as each claim started

    def logged(claim_id, params=None):
        started.append(_records_received(stream.received, fmt))
        return claims.VerificationReport(claim_id, {}, "pass", [{"index": len(started)}])

    stream = Received()
    monkeypatch.setattr(claims, "run_claim", logged)
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["verify", "all", "--format", fmt]) == 0
    reports = [
        {"claim_id": cid, "evidence": [{"index": i + 1}], "parameters": {}, "status": "pass"}
        for i, cid in enumerate(ids)
    ]
    assert len(started) == len(ids)
    for i, received in enumerate(started):
        # claim i starts once the reports of claims 0..i-1 are flushed
        assert len(received) == i, (ids[i], fmt)
        if fmt != "text":
            assert received == reports[:i]
    if fmt == "json":
        assert stream.received == json.dumps(reports, indent=2, sort_keys=True) + "\n"


def _width(record):
    if isinstance(record, dict):
        return record["n"]
    return int(re.search(r"(?:^| )n=(\d+)", record).group(1))


@pytest.mark.parametrize("fmt", ["json", "ndjson", "text"])
def test_cli_classify_writes_each_width_before_the_next_is_built(monkeypatch, fmt):
    built = []  # (width, what the reader had received as it was built)
    representatives = rc.representatives

    def logged(n):
        # the enumeration reads the width's representatives again
        if n not in (w for w, _ in built):
            built.append((n, _records_received(stream.received, fmt)))
        return representatives(n)

    stream = Received()
    monkeypatch.setattr(rc, "representatives", logged)
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["classify", "--n", "3..6", "--format", fmt]) == 0
    text = stream.received.removesuffix("\n]\n") if fmt == "json" else stream.received
    records = _records_received(text, fmt)
    widths = [_width(r) for r in records]
    assert widths == sorted(widths) and set(widths) == {3, 4, 5, 6}
    assert [n for n, _ in built] == [3, 4, 5, 6]
    for n, received in built:
        # every record of the widths below n, and none of width n
        assert received == records[: widths.index(n)], (n, fmt)


def test_cli_verify_stops_cleanly_when_the_reader_closes():
    proc = subprocess.Popen(
        [sys.executable, "-m", "holocirc.cli", "verify", "all", "--format", "ndjson"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert json.loads(first)["claim_id"] == "lem-3.1"
    lines = err.decode().splitlines()
    assert "Traceback" not in err.decode()
    assert lines[-1] == "output closed by its reader; stopped early"
    status = lines[:-1]
    # the claims after the closing stop: far fewer than the 20 status lines
    assert all(line.startswith("[pass] ") for line in status)
    assert 1 <= len(status) < 10


def test_cli_verify_usage_error_mid_run_keeps_the_reports_written(monkeypatch, capsys):
    def broken(params):
        raise ValueError("broken claim")

    flags = claims.REGISTRY["lem-3.3"].flags
    monkeypatch.setitem(claims.REGISTRY, "lem-3.3", claims.Claim("lem-3.3", "broken", broken, flags))
    assert main(["verify", "all", "--format", "ndjson"]) == 2
    captured = capsys.readouterr()
    # the complete reports of the claims before it are already written
    reports = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["claim_id"] for r in reports] == ["lem-3.1", "lem-3.2"]
    assert all(r["status"] == "pass" for r in reports)
    assert captured.err.splitlines()[-1] == "usage error: broken claim"


def _copy_turned_non_normal(n, mults, generator):
    """cyclic_copies marks the copy <generator> non-normal for the
    multiplier group ``mults`` of Z_n, so every normal class with that
    group turns nnn."""

    def wrong(right):
        def copies(k, ms):
            found = right(k, ms)
            if (k, tuple(sorted(ms))) != (n, mults):
                return found
            return tuple(
                dataclasses.replace(c, normal_in_aut=False) if c.generator == generator else c
                for c in found
            )

        return copies

    return circulant, "cyclic_copies", wrong


def _scan_with_indices(n, conn, indices):
    """abelian_regular_scan reports ``indices`` for the set ``conn`` of Z_n."""
    wrong = lambda right: lambda k: [
        (c, indices if (k, c) == (n, conn) else ix) for c, ix in right(k)
    ]
    return circulant, "abelian_regular_scan", wrong


def _centralizer_one_short(n, m_exps):
    """centralizer_in_aut drops its last multiplier at one case."""
    wrong = lambda right: lambda k, exps: (
        right(k, exps)[:-1] if (k, tuple(exps)) == (n, m_exps) else right(k, exps)
    )
    return claims.hol, "centralizer_in_aut", wrong


def _normal_on(n, conn):
    """is_normal_cayley answers true on the set ``conn`` of Z_n."""
    wrong = lambda right: lambda c, *aut: (c.n, c.conn) == (n, conn) or right(c, *aut)
    return circulant, "is_normal_cayley", wrong


def _doubled_sum(ratio, length):
    """geom_series doubles the sum of one ratio (mod 2^SUM_WIDTH) and length."""
    mod = 1 << claims.SUM_WIDTH

    def wrong(right):
        def series(q, k, m):
            total = right(q, k, m)
            return 2 * total % m if (q % mod, k) == (ratio % mod, length) else total

        return series

    return claims.nt, "geom_series", wrong


def _lex_exponent_at(k, t, value):
    """lex_exponent answers ``value`` at the split (k, t)."""
    wrong = lambda right: lambda kk, tt: value if (kk, tt) == (k, t) else right(kk, tt)
    return circulant, "lex_exponent", wrong


def _witness_breaking_an_edge(n, conn):
    """_coset_twist swaps 2 and 3 on the set ``conn`` of Z_n, a bijection
    fixing 0 and 1: of the witness checks, only the edge check rejects it."""

    def wrong(right):
        def twist(circ, multiplier, shift, q):
            if (circ.n, circ.conn) != (n, conn):
                return right(circ, multiplier, shift, q)
            theta = (0, 1, 3, 2, *range(4, n))
            circulant._verify_witness(circ, theta)
            return theta

        return twist

    return circulant, "_coset_twist", wrong


def _w_subgroups_at(n, conn, value):
    """w_subgroups answers ``value`` on the set ``conn`` of Z_n."""
    wrong = lambda right: lambda c: value if (c.n, c.conn) == (n, conn) else right(c)
    return circulant, "w_subgroups", wrong


# each claim id: its parameters, the planted fault, a fault the evidence
# must name, and how many faults it reports
PLANTED_FAULTS = {
    # Z_16's 4 normal classes with group <-1, 7> hold the copy (1, 9)
    "thm-1.3-scan": (
        {"modulus": 16},
        _copy_turned_non_normal(16, (1, 7, 9, 15), (1, 9)),
        {"n": 16, "S": [2, 3, 5, 11, 13, 14], "mask": 22},
        16,
    ),
    # no normal class of Z_9, Z_10 or Z_12 has a second copy: the
    # translation copy itself is marked, on Z_12's 3 classes with group
    # Z_12^*
    "thm-2.8-no8": (
        {},
        _copy_turned_non_normal(12, (1, 5, 7, 11), (1, 1)),
        {"n": 12, "S": [2, 3, 9, 10]},
        6,
    ),
    "lem-2.6-2power": (
        {},
        _scan_with_indices(12, (1, 11), (3,)),
        {"S": [1, 11], "indices": [3]},
        1,
    ),
    "thm-2.7-unique": (
        {},
        _scan_with_indices(10, (1, 9), (1, 2)),
        {"n": 10, "S": [1, 9], "count": 2},
        1,
    ),
    "lem-y-nonnormal": (
        {},
        _normal_on(16, frozenset({4, 12})),
        {"n": 16, "S": [4, 12]},
        1,
    ),
    "lem-2.1": (
        {},
        _centralizer_one_short(27, (1,)),
        {"p": 3, "k": 3, "m": 1, "order": 8},
        1,
    ),
    "cor-2.3": (
        {},
        _centralizer_one_short(36, (1, 2)),
        {"n": 36, "m_exps": [1, 2], "order": 1, "want": 2},
        1,
    ),
    # the one sample of seed 1 draws k = 276 and j = 130
    "lem-3.2": (
        {"samples": 1, "seed": 1},
        _doubled_sum(-claims.nt.pow5(-130, claims.SUM_WIDTH), 276),
        {"sum": "L", "k": 276, "j": 130, "two_part": 32},
        1,
    ),
    "lem-lex": (
        {},
        _lex_exponent_at(5, 2, 8),
        {"k": 5, "t": 2, "exponent": 8},
        1,
    ),
    "lem-2.4-theta": (
        {},
        _normal_on(9, frozenset()),
        {"S": [], "why": "witness exists but graph normal"},
        1,
    ),
    "thm-4.3-theta": (
        {},
        _normal_on(16, frozenset({4, 12})),
        {"S": [4, 12], "why": "witness exists but graph normal"},
        1,
    ),
}

# the claims whose faults are shown by tests of their own
DEDICATED_FAULT_TESTS = (
    "lem-3.1",
    "lem-3.3",
    "lem-3.4",
    "lem-3.5",
    "lem-3.10",
    "thm-3.14",
    "thm-1.4",
    "thm-3.4-normality",
    "cor-3.4",
)


def test_every_claim_has_a_fault_case():
    # a new claim cannot join the registry without one
    assert set(PLANTED_FAULTS).isdisjoint(DEDICATED_FAULT_TESTS)
    assert sorted([*PLANTED_FAULTS, *DEDICATED_FAULT_TESTS]) == sorted(claims.claim_ids())


@pytest.mark.parametrize("claim_id", list(PLANTED_FAULTS))
def test_every_claim_fails_on_a_planted_fault(monkeypatch, claim_id):
    params, (module, name, wrong), named, faults = PLANTED_FAULTS[claim_id]
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    report = claims.run_claim(claim_id, params)
    assert report.status == "fail"
    assert named in report.evidence
    assert len(report.evidence) == faults


# a second fault for three claims, in a check that the table above leaves
# unexercised: each claim's parameters, the planted fault and the whole
# evidence it must report
SECOND_PLANTED_FAULTS = {
    # both graphs are non-normal, so only the edge check catches the witness
    "lem-2.4-theta": (
        {},
        _witness_breaking_an_edge(9, frozenset({3, 6})),
        [{"S": [3, 6], "why": "witness breaks the edge (0, 3)"}],
    ),
    "thm-4.3-theta": (
        {},
        _witness_breaking_an_edge(16, frozenset({4, 12})),
        [{"S": [4, 12], "why": "witness breaks the edge (2, 6)"}],
    ),
    # the census statement: the cycle {1, 7} of Z_8 is normal, and its
    # class under units and complementation copies the planted answer
    "lem-lex": (
        {},
        _w_subgroups_at(8, frozenset({1, 7}), [2]),
        [
            {"n": 8, "S": conn, "why": "coset-stable but normal"}
            for conn in ([1, 7], [3, 5], [1, 2, 4, 6, 7], [2, 3, 4, 5, 6])
        ],
    ),
}


@pytest.mark.parametrize("claim_id", list(SECOND_PLANTED_FAULTS))
def test_claims_fail_on_a_second_planted_fault(monkeypatch, claim_id):
    params, (module, name, wrong), evidence = SECOND_PLANTED_FAULTS[claim_id]
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    report = claims.run_claim(claim_id, params)
    assert (report.status, report.evidence) == ("fail", evidence)
