import hashlib
import json
import os
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import laxforge
from laxforge.cli import _canonical_bytes, main


def run(args):
    return main(args)


def run_fresh(args, **kwargs):
    """The command in a new process that imports this checkout's laxforge."""
    src = str(Path(laxforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "laxforge.cli", *args],
                          capture_output=True, text=True, env=env, **kwargs)


def test_usage_error_exit_code_2(tmp_path, capsys):
    assert run(["generate", "--m", "2", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert "m > 2" in err


def test_unknown_suite_exit_code_2(capsys):
    assert run(["verify", "--m", "3", "--n", "0", "--suite", "nonsense"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        # --rep names a directory
        lambda tmp, _: ["verify", "--m", "3", "--n", "0", "--suite", "ybe", "--rep", tmp],
        # --cache-dir names a regular file
        lambda tmp, file: ["generate", "--m", "3", "--n", "0", "--cache-dir", file,
                           "--out", f"{tmp}/out"],
        # --out lies below a regular file
        lambda _, file: ["verify", "--m", "3", "--n", "0", "--suite", "ybe",
                         "--out", f"{file}/x"],
    ],
)
def test_os_error_on_a_path_is_a_usage_error(tmp_path, capsys, args):
    file = tmp_path / "file"
    file.write_text("")
    assert run(args(str(tmp_path), str(file))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno ") and captured.err.count("\n") == 1


def test_generate_writes_artifacts(tmp_path):
    out = tmp_path / "artifacts"
    assert run([
        "generate", "--m", "3", "--n", "2",
        "--out", str(out), "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    sigma_doc = json.loads((out / "sigma_3_2_vector.json").read_text())
    assert sigma_doc["algebra"] == {"m": 3, "n": 2}
    assert "mu1,i1" in sigma_doc["entries"]
    r_doc = json.loads((out / "r_vector_3_2.json").read_text())
    assert r_doc["dims"] == [5, 5]


def test_generate_cache_hit_is_byte_identical(tmp_path):
    cache = tmp_path / "cache"
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run([
            "generate", "--m", "3", "--n", "0",
            "--out", str(out), "--cache-dir", str(cache),
        ]) == 0
    for name in ("sigma_3_0_vector.json", "r_vector_3_0.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert any(cache.iterdir())


def test_cache_dir_from_environment(tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("LAXFORGE_CACHE", str(cache))
    assert run(["generate", "--m", "3", "--n", "0", "--out", str(tmp_path / "o")]) == 0
    assert any(cache.iterdir())


def test_verify_all_suites_pass(tmp_path):
    out = tmp_path / "report.json"
    code = run([
        "verify", "--m", "3", "--n", "0", "--suite", "all",
        "--samples", "2", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    names = {r["check"] for r in doc["reports"]}
    assert "ybe" in names and "spectral_ybe_twisted" in names
    assert all(r["status"] == "pass" for r in doc["reports"])


def test_verify_single_vacuous_suite_exits_zero(tmp_path, capsys):
    code = run([
        "verify", "--m", "3", "--n", "2", "--suite", "extra-serre",
        "--format", "text",
    ])
    assert code == 0
    assert "vacuous" in capsys.readouterr().out


def test_verify_corrupted_rep_file_fails(tmp_path, capsys):
    from laxforge.superroot import build_algebra
    from laxforge.gradedmat import build_vector_rep
    from laxforge.qring import LaurentPoly

    doc = build_vector_rep(build_algebra(3, 2)).to_json()
    label = next(iter(doc["e"]))
    row, col, text = doc["e"][label][0]
    doc["e"][label][0] = [row, col, str(-LaurentPoly.parse(text))]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    code = run([
        "verify", "--m", "3", "--n", "2", "--rep", str(path), "--suite", "qcom",
    ])
    assert code == 1  # the defining-relation assertions reject the matrices


@pytest.mark.parametrize("edit, line", [
    (lambda doc: doc["e"]["l"][0].__setitem__(0, 99),
     "error: bad matrix entry [99, 2, '1']: index outside 1..3"),
    (lambda doc: doc["e"]["l"][0].__setitem__(0, 0),
     "error: bad matrix entry [0, 2, '1']: index outside 1..3"),
    (lambda doc: doc["e"]["l"].append([1, 2, "5"]),
     "error: bad matrix entry [1, 2, '5']: its position is already set"),
    (lambda doc: doc.update(e=[1, 2]),
     "error: malformed representation document: e and f must map labels to entry lists"),
    (lambda doc: doc.update(e={"l": 5}),
     "error: bad matrix entries 5: not a list of [row, col, value]"),
    (lambda doc: doc["gradings"].__setitem__(1, 2), "error: grading 2 is not 0 or 1"),
    (lambda doc: doc["weights"][0]["eps"].append("0"),
     "error: weight 1 has 2 eps and 0 delta coordinates; osp(3|0) needs 1 and 0"),
    (lambda doc: doc["weights"][2]["eps"].clear(),
     "error: weight 3 has 0 eps and 0 delta coordinates; osp(3|0) needs 1 and 0"),
    (lambda doc: doc["e"]["l"][0].__setitem__(2, "1/0"),
     "error: bad matrix entry [1, 2, '1/0']: malformed Laurent term: '1/0'"),
    (lambda doc: doc["weights"][0]["eps"].__setitem__(0, "1/0"),
     "error: malformed representation document: weight coordinate '1/0' is not "
     "an integer or an exact rational"),
    (lambda doc: doc["e"]["l"][0].__setitem__(2, 1),
     "error: bad matrix entry [1, 2, 1]: row and column must be integers, the value a string"),
    (lambda doc: doc.update(gradings=[0.9, 0, 0.2]), "error: grading 0.9 is not 0 or 1"),
    (lambda doc: doc.update(dim=3.7),
     "error: malformed representation document: dim 3.7 is not an integer"),
    (lambda doc: doc["e"]["l"][0].__setitem__(0, 1.9),
     "error: bad matrix entry [1.9, 2, '1']: row and column must be integers, the value a string"),
    (lambda doc: doc["e"]["l"][0].__setitem__(0, True),
     "error: bad matrix entry [True, 2, '1']: row and column must be integers, the value a string"),
    (lambda doc: doc["algebra"].__setitem__("m", 3.2),
     "error: malformed representation document: m 3.2 is not an integer"),
    (lambda doc: doc["weights"][0]["eps"].__setitem__(0, 0.1),
     "error: malformed representation document: weight coordinate 0.1 is not "
     "an integer or an exact rational"),
    (lambda doc: doc["weights"][0]["eps"].__setitem__(0, "1e9"),
     "error: malformed representation document: weight coordinate '1e9' is not "
     "an integer or an exact rational"),
])
def test_malformed_rep_file_is_a_usage_error(tmp_path, capsys, edit, line):
    from laxforge.superroot import build_algebra
    from laxforge.gradedmat import build_vector_rep

    doc = build_vector_rep(build_algebra(3, 0)).to_json()
    edit(doc)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    code = run(["verify", "--m", "3", "--n", "0", "--rep", str(path), "--suite", "qcom"])
    assert (code, capsys.readouterr().err) == (2, line + "\n")


@pytest.mark.parametrize(
    "name", ["x/../../escaped", "", ".", "..", "a\\b", "a\0b", None, 5, ["a"]]
)
def test_a_rep_name_that_is_no_file_name_is_a_usage_error(tmp_path, capsys, name):
    # the name is part of generate's file names, so it must be a JSON
    # string, and must not leave --out
    from laxforge.superroot import build_algebra
    from laxforge.gradedmat import build_vector_rep

    doc = {**build_vector_rep(build_algebra(3, 0)).to_json(), "name": name}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "trav" / "out"
    assert run(["generate", "--m", "3", "--n", "0", "--rep", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: representation name {name!r} cannot be part of a file name\n"
    )
    assert [p.name for p in tmp_path.rglob("*")] == ["rep.json"]


@pytest.mark.parametrize("args, calls", [
    (["--suite", "ybe"], 0),
    (["--rep", "trivial", "--suite", "qcom"], 0),
    (["--rep", "{path}", "--suite", "qcom"], 1),
])
def test_only_a_rep_file_has_its_relations_checked_in_a_job(
    tmp_path, monkeypatch, args, calls
):
    # V and the trivial module are proved by the tests, not in every job
    from laxforge import gradedmat
    from laxforge.superroot import build_algebra

    path = tmp_path / "rep.json"
    path.write_text(json.dumps(
        {**gradedmat.build_vector_rep(build_algebra(5, 2)).to_json(), "name": "w"}
    ))
    seen, check = [], gradedmat.check_representation

    def spy(rep):
        seen.append(rep.name)
        check(rep)

    monkeypatch.setattr(gradedmat, "check_representation", spy)
    argv = [a.format(path=path) for a in args]
    assert run(["verify", "--m", "5", "--n", "2", *argv]) == 0
    assert seen == ["w"] * calls


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "ybe"], ["spectral", "--kind", "twisted"], ["eval", "--s", "2"],
])
def test_cache_dir_is_a_generate_option_only(tmp_path, capsys, command):
    argv = [command[0], "--m", "3", "--n", "0", *command[1:], "--cache-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_verify_with_rep_file_round_trip(tmp_path):
    from laxforge.superroot import build_algebra
    from laxforge.gradedmat import build_vector_rep

    doc = build_vector_rep(build_algebra(3, 2)).to_json()
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    code = run([
        "verify", "--m", "3", "--n", "2", "--rep", str(path),
        "--suite", "qcom", "--suite", "appendix",
    ])
    assert code == 0


def test_spectral_at_z_one_is_graded_permutation(tmp_path, capsys):
    assert run([
        "spectral", "--m", "3", "--n", "2", "--kind", "untwisted",
        "--z", "1", "--s", "2",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    entries = {(r, c): v for r, c, v in doc["entries"]}
    # first basis vector is odd: P entry (1,1) carries the Koszul sign
    assert entries[(1, 1)] == "-1"
    d = 5
    for (r, c), v in entries.items():
        a, b = divmod(r - 1, d)
        assert (c - 1) == b * d + a  # a permutation matrix pattern


def test_spectral_pole_exit_code(capsys):
    # untwisted pole z = q^(m-n-2) = q = 4 at s = 2
    assert run([
        "spectral", "--m", "3", "--n", "0", "--kind", "untwisted",
        "--z", "4", "--s", "2",
    ]) == 1
    assert "denominator" in capsys.readouterr().err


def test_eval_exact_rationals(capsys):
    assert run(["eval", "--m", "3", "--n", "0", "--s", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    values = {v for _, _, v in doc["entries"]}
    assert "15/4" in values  # q - q^-1 at s = 2


@pytest.mark.parametrize("args, digest", [
    (["--m", "3", "--n", "0", "--s", "3/2"],
     "2c21b4ee6625f8d48a2f3891dd6b5f496aa3fafcde218517ba94635d8bff04da"),
    (["--m", "5", "--n", "4", "--s=-5/3"],
     "5a3fffc91534b30ece3059a075c2b8573cdf2c3317a972604807cce9d11f8142"),
])
def test_eval_bytes_are_pinned(capsys, args, digest):
    # digests recorded while eval still evaluated each entry term by term
    assert run(["eval", *args]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def test_eval_rejects_degenerate_s(capsys):
    assert run(["eval", "--m", "3", "--n", "0", "--s", "1"]) == 2


def test_spectral_serialization_round_trips(tmp_path):
    out = tmp_path / "spec.json"
    assert run([
        "spectral", "--m", "3", "--n", "0", "--kind", "twisted", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "twisted"
    from laxforge.qring import RatFunc

    for val in doc["entries"].values():
        rf = RatFunc.from_json(val)
        assert RatFunc.from_json(rf.to_json()) == rf


@pytest.mark.parametrize("command", [
    ["generate"],
    ["spectral", "--kind", "untwisted"],
    ["eval", "--s", "2"],
])
def test_json_only_commands_reject_text_format(tmp_path, capsys, command):
    # --format is a verify option only
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        run([
            command[0], "--m", "3", "--n", "0", *command[1:],
            "--format", "text", "--out", str(out),
        ])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "usage: laxforge [-h] {generate,verify,spectral,eval} ...\n"
        "laxforge: error: unrecognized arguments: --format text\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_warm_generate_reads_each_cached_file_once(tmp_path, monkeypatch):
    from laxforge import cli

    cache = tmp_path / "cache"
    args = ["generate", "--m", "3", "--n", "0", "--cache-dir", str(cache)]
    assert run([*args, "--out", str(tmp_path / "cold")]) == 0
    reads = []
    fetch = cli._cache_fetch

    def counting_fetch(cfg, key):
        reads.append(key)
        return fetch(cfg, key)

    monkeypatch.setattr(cli, "_cache_fetch", counting_fetch)
    assert run([*args, "--out", str(tmp_path / "warm")]) == 0
    assert len(reads) == 2 and len(set(reads)) == 2
    for name in ("sigma_3_0_vector.json", "r_vector_3_0.json"):
        assert (tmp_path / "cold" / name).read_bytes() == (
            tmp_path / "warm" / name
        ).read_bytes()


@pytest.mark.parametrize("args, digest", [
    (["--kind", "twisted"],
     "96130954704e82c42c89f35b01a4ad8c70db1abff6aea8ba32047479dd71874c"),
    (["--kind", "untwisted", "--z", "1/3", "--s", "2"],
     "2e4d518564df95d6f1ede9049d2a83885efcd472d6ff8e66a9e49b69bb036a35"),
])
def test_spectral_bytes_are_pinned(capsys, args, digest):
    # digests recorded before sampling moved to the shared s-substitution
    assert run(["spectral", "--m", "3", "--n", "2", *args]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def test_pole_exhaustion_is_not_an_identity_failure(monkeypatch, capsys):
    from laxforge import spectral

    # untwisted pole z = q = 4 at s = 2 on every draw
    monkeypatch.setattr(
        spectral, "_sample_point", lambda rng: (Fraction(2), Fraction(4), Fraction(1))
    )
    code = run([
        "verify", "--m", "3", "--n", "0", "--suite", "spectral-untwisted",
        "--samples", "1",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "pole-free samples" in captured.err
    assert captured.out == ""


# Digests of verify's stdout, recorded before the suites moved onto one
# shared per-job context; the reports must not change by a byte.
@pytest.mark.parametrize("args, digest", [
    (["--m", "3", "--n", "2", "--suite", "all", "--format", "json"],
     "c480f72eadc06243a2e2483d171d04928df012e091bd02b4998b792da8dacc29"),
    (["--m", "3", "--n", "2", "--suite", "all", "--format", "text"],
     "df684f588e1bb43804022de85ce339758f046ea4b0552d8ad2bb394eec0a910d"),
    (["--m", "4", "--n", "2", "--rep", "trivial", "--suite", "lax-ybe",
      "--suite", "qcom", "--suite", "serre", "--suite", "appendix",
      "--suite", "path-independence", "--suite", "spectral-twisted",
      "--format", "json"],
     "501fa844b1491594380d03463cc0d44dedeeca9e44e8bcc6d497417b7e3f0cf5"),
])
def test_verify_bytes_are_pinned(capsys, args, digest):
    assert run(["verify", *args]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args, message", [
    (["--m", "3", "--n", "0", "--suite", "nonsense"],
     "error: unknown suite 'nonsense'; choose from ('ybe', 'lax-ybe', "
     "'intertwine', 'delta', 'qcom', 'serre', 'extra-serre', 'appendix', "
     "'opposite', 'path-independence', 'spectral-untwisted', "
     "'spectral-twisted')\n"),
    (["--m", "3", "--n", "0", "--rep", "trivial", "--suite", "ybe"],
     "error: suite 'ybe' requires the vector representation\n"),
])
def test_verify_suite_usage_errors_are_pinned(capsys, args, message):
    assert run(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


@pytest.mark.parametrize("args, built", [
    (["--suite", "all"], ["vector"]),
    (["--suite", "spectral-untwisted", "--samples", "1"], ["vector"]),
    (["--suite", "serre"], []),
    (["--rep", "trivial", "--suite", "lax-ybe"], ["trivial", "vector"]),
])
def test_verify_builds_each_construction_once(monkeypatch, capsys, args, built):
    # one job builds sigma-hat and R at most once per representation, and
    # only for the suites that use them
    from laxforge import cli

    calls = {"assemble_R": [], "extend_sigma": []}
    for name, seen in calls.items():
        def counted(sigma, _real=getattr(cli, name), _seen=seen):
            _seen.append(sigma.rep.name)
            return _real(sigma)

        monkeypatch.setattr(cli, name, counted)
    assert run(["verify", "--m", "3", "--n", "2", *args]) == 0
    assert sorted(calls["extend_sigma"]) == built
    assert sorted(calls["assemble_R"]) == built


@pytest.mark.parametrize("suites, lead", [
    (["all", "ybe"], []),
    (["ybe", "all"], []),
    (["qcom", "all", "qcom"], ["qcom"]),
])
def test_verify_expands_all_anywhere_and_runs_each_suite_once(capsys, suites, lead):
    def checks(*args):
        assert run(["verify", "--m", "3", "--n", "0", *args, "--samples", "1"]) == 0
        return [r["check"] for r in json.loads(capsys.readouterr().out)["reports"]]

    reference = checks("--suite", "all")
    got = checks(*(a for s in suites for a in ("--suite", s)))
    assert got == lead + [c for c in reference if c not in lead]


@pytest.mark.parametrize("suites", [[], ["all"], ["all", "lax-ybe"]])
def test_all_on_another_w_runs_every_suite_that_w_allows(capsys, suites):
    # the suites that need V are left out of `all`, not reported as errors;
    # the spectral suites stay, as they always use V
    args = ["--m", "4", "--n", "2", "--rep", "trivial", "--samples", "1"]
    assert run(["verify", *args, *(a for s in suites for a in ("--suite", s))]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [r["check"] for r in json.loads(captured.out)["reports"]] == [
        "lax_ybe", "qcom", "qserre", "extra_serre", "appendix",
        "path_independence", "spectral_ybe_untwisted", "spectral_ybe_twisted",
    ]


@pytest.mark.parametrize("rep", ["trivial", "some/rep.json"])
def test_spectral_rejects_non_vector_rep(monkeypatch, capsys, rep):
    from laxforge import cli

    def never(*args, **kwargs):
        raise AssertionError("nothing may be built")

    monkeypatch.setattr(cli, "build_algebra", never)
    # spectral has no --rep: r(z) is built on the vector representation only
    with pytest.raises(SystemExit) as info:
        run([
            "spectral", "--m", "3", "--n", "0", "--kind", "twisted", "--rep", rep,
            "--z", "1/3", "--s", "2",
        ])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "usage: laxforge [-h] {generate,verify,spectral,eval} ...\n"
        f"laxforge: error: unrecognized arguments: --rep {rep}\n"
    )
    assert captured.out == ""


def test_corrupted_cache_entry_is_rebuilt(tmp_path):
    cache = tmp_path / "cache"
    args = ["generate", "--m", "3", "--n", "0", "--cache-dir", str(cache)]
    assert run([*args, "--out", str(tmp_path / "fresh")]) == 0
    cached = sorted(cache.glob("*-r.json"))
    assert len(cached) == 1 and cached[0].with_suffix(".sha256").exists()
    good = cached[0].read_bytes()
    bad = bytearray(good)
    bad[len(bad) // 2] ^= 1  # one flipped bit in one byte
    cached[0].write_bytes(bytes(bad))
    assert run([*args, "--out", str(tmp_path / "again")]) == 0
    name = "r_vector_3_0.json"
    assert (tmp_path / "again" / name).read_bytes() == good
    assert (tmp_path / "fresh" / name).read_bytes() == good
    assert cached[0].read_bytes() == good  # the entry was overwritten


def test_cache_entry_without_digest_is_a_miss(tmp_path, monkeypatch):
    from laxforge import cli

    cache = tmp_path / "cache"
    args = ["generate", "--m", "3", "--n", "0", "--cache-dir", str(cache)]
    assert run([*args, "--out", str(tmp_path / "fresh")]) == 0
    for digest in cache.glob("*.sha256"):
        digest.unlink()
    fetched = []
    fetch = cli._cache_fetch
    monkeypatch.setattr(
        cli, "_cache_fetch", lambda cfg, key: fetched.append(fetch(cfg, key))
    )
    assert run([*args, "--out", str(tmp_path / "again")]) == 0
    assert fetched == [None, None]
    assert len(list(cache.glob("*.sha256"))) == 2


def test_internal_assertion_has_its_own_exit_code(monkeypatch, capsys):
    from laxforge import laxengine

    # an induction pair with no admissible intermediate is a construction bug
    monkeypatch.setattr(laxengine, "admissible_intermediates", lambda alg, b, a: [])
    assert run(["eval", "--m", "4", "--n", "2", "--s", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: no admissible intermediate for pair (mu1,i2)\n"
    assert captured.out == ""

    # an exception that no handler classes is a bug too, not a failed identity
    from laxforge import verifier

    monkeypatch.undo()

    def boom(*args):
        raise TypeError("boom")

    monkeypatch.setattr(verifier, "check_ybe", boom)
    assert run(["verify", "--m", "3", "--n", "0", "--suite", "ybe"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "internal error: TypeError: boom\n")


def test_spectral_builds_no_braced_factor(monkeypatch, capsys):
    # the braced factor equals R by construction; the tests prove it on the
    # ladder, so a job never builds it
    from laxforge import spectral

    calls = []
    build = spectral.braces_matrix
    monkeypatch.setattr(
        spectral, "braces_matrix", lambda *args: calls.append(args) or build(*args)
    )
    assert run(["spectral", "--m", "5", "--n", "4", "--kind", "untwisted"]) == 0
    capsys.readouterr()
    assert calls == []


def test_parser_reused_across_calls_matches_fresh_processes(monkeypatch, capsys):
    # main keeps one parser per process; consecutive calls, with an
    # argparse usage error between them, print what fresh processes print
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    calls = [
        ["verify", "--m", "3", "--n", "2", "--suite", "ybe", "--suite", "delta"],
        ["verify", "--m", "3", "--suite", "qcom"],  # no --n: a usage error
        ["verify", "--m", "3", "--n", "0", "--suite", "qcom", "--format", "text"],
        ["verify", "--m", "3", "--n", "0", "--suite", "nonsense"],
        ["verify", "--m", "4", "--n", "0", "--suite", "all", "--format", "text"],
    ]
    codes = []
    for args in calls:
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = run_fresh(args)
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        )
        codes.append(code)
    assert codes == [0, 2, 0, 2, 0]


# text with non-ASCII and control characters, quotes and backslashes
json_text = st.text(
    alphabet=st.characters(max_codepoint=0x2FFF) | st.sampled_from('"\\\x00\x1f\x7f')
)
json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | json_text,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(json_text, children, max_size=4),
    max_leaves=20,
)


@given(json_docs)
def test_canonical_bytes_match_json_dumps(doc):
    want = json.dumps(doc, sort_keys=True, indent=1).encode() + b"\n"
    assert _canonical_bytes(doc) == want


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), (1, 2)])
def test_canonical_bytes_refuse_other_types(bad):
    for doc in (bad, [1, bad], {"a": {"b": bad}}):
        with pytest.raises(TypeError):
            _canonical_bytes(doc)
    with pytest.raises(TypeError):
        _canonical_bytes({1: "int key"})


# Digests recorded before qcom and appendix shared one q-commutation loop
# and the entry lists were written by one function.
@pytest.mark.parametrize("args, digest", [
    (["--m", "5", "--n", "4", "--format", "json"],
     "7102a20c8f06cc5a677bb205e197b8154c1857c9f47553c6014f9141a2d6bc91"),
    (["--m", "5", "--n", "4", "--format", "text"],
     "45c0ff9d93365d63613537ecb5ecf2a6063354319463c4dcc498dc3070187859"),
    (["--m", "6", "--n", "2", "--format", "json"],
     "f2db08e3d34cfb84c0cd3b84f677c700adfafbb4420a1fdfb380428ef5dd2ff7"),
    (["--m", "6", "--n", "2", "--format", "text"],
     "d1447ddd55a3b11e9856d6b5223a07f313eb09b31bf52acf8bf80d10e4ec7c32"),
])
def test_verify_all_bytes_are_pinned(capsys, args, digest):
    assert run(["verify", *args, "--suite", "all"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_generate_bytes_are_pinned(tmp_path):
    assert run(["generate", "--m", "5", "--n", "4", "--out", str(tmp_path)]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert digests == {
        "r_vector_5_4.json":
            "f5dcb965caf27f4731bbf2421f9b7043c778c746c8cb1362953d47c57ebd6b6c",
        "sigma_5_4_vector.json":
            "b9b55d65e93ffbd54b6f2aabda73a6ba4fc70c172b14a5ae31eed3c63afa9d18",
    }


@pytest.mark.parametrize("separated, attached", [
    (["eval", "--m", "3", "--n", "0", "--s", "-5/3"],
     ["eval", "--m", "3", "--n", "0", "--s=-5/3"]),
    (["spectral", "--m", "3", "--n", "2", "--kind", "twisted", "--s", "-5/3",
      "--z", "2/5"],
     ["spectral", "--m", "3", "--n", "2", "--kind", "twisted", "--s=-5/3",
      "--z=2/5"]),
    (["spectral", "--m", "3", "--n", "2", "--kind", "untwisted", "--z", "-2/5",
      "--s", "-3"],
     ["spectral", "--m", "3", "--n", "2", "--kind", "untwisted", "--z=-2/5",
      "--s=-3"]),
])
def test_negative_rationals_may_follow_their_option(capsys, separated, attached):
    results = []
    for args in (separated, attached):
        code = run(args)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results[0] == results[1]
    assert results[0][0] == 0 and results[0][1] and results[0][2] == ""


GENERIC = "error: --s must avoid 0 and +-1 so that q stays generic\n"


@pytest.mark.parametrize("args, message", [
    (["eval", "--m", "3", "--n", "0", "--s", "1"], GENERIC),
    (["eval", "--m", "3", "--n", "0", "--s", "0"], GENERIC),
    (["eval", "--m", "3", "--n", "0", "--s", "-1"], GENERIC),
    (["spectral", "--m", "3", "--n", "0", "--kind", "twisted", "--s", "1",
      "--z", "1/3"], GENERIC),
    (["spectral", "--m", "3", "--n", "0", "--kind", "twisted", "--s", "0",
      "--z", "1/3"], GENERIC),
    (["spectral", "--m", "3", "--n", "0", "--kind", "untwisted", "--s", "-1",
      "--z", "1/3"], GENERIC),
    (["spectral", "--m", "3", "--n", "0", "--kind", "twisted", "--s", "2"],
     "error: spectral --s needs --z: it sets s at the point z\n"),
    (["eval", "--m", "2", "--n", "0", "--s", "1"],
     "error: m = 2: this root system is only valid for m > 2\n"),
    (["spectral", "--m", "2", "--n", "0", "--kind", "twisted", "--s", "1",
      "--z", "1/3"],
     "error: m = 2: this root system is only valid for m > 2\n"),
])
def test_one_rule_for_s_is_pinned(capsys, args, message):
    # eval and spectral --z share one rule for s, checked after the algebra
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


@pytest.mark.parametrize("args", [
    ["eval", "--m", "3", "--n", "0", "--s="],
    ["spectral", "--m", "3", "--n", "0", "--kind", "twisted", "--z="],
])
def test_an_empty_s_or_z_is_not_a_rational(capsys, args):
    # an empty value is parsed like any other, not read as an absent option
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: not an exact rational: ''")
    assert captured.out == ""


def test_console_reads_a_separated_negative_rational(capsys):
    # main(None) reads sys.argv: a fresh process takes --s -5/3 as --s=-5/3
    fresh = run_fresh(["eval", "--m", "3", "--n", "0", "--s", "-5/3"])
    assert run(["eval", "--m", "3", "--n", "0", "--s=-5/3"]) == 0
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (
        0, capsys.readouterr().out, ""
    )


def _spy_writes(monkeypatch):
    """Record every path cli._atomic_write is called on."""
    from laxforge import cli

    written = []
    write = cli._atomic_write

    def spy(path, data):
        written.append(Path(path))
        write(path, data)

    monkeypatch.setattr(cli, "_atomic_write", spy)
    return written


GENERATED = ("sigma_5_4_vector.json", "r_vector_5_4.json")


def test_generate_again_leaves_unchanged_outputs_alone(tmp_path, monkeypatch):
    monkeypatch.delenv("LAXFORGE_CACHE", raising=False)
    args = ["generate", "--m", "5", "--n", "4", "--out", str(tmp_path)]
    assert run(args) == 0
    before = {name: (tmp_path / name).read_bytes() for name in GENERATED}
    for name in GENERATED:  # an old mtime, so that a rewrite would show
        os.utime(tmp_path / name, ns=(10**18, 10**18))
    written = _spy_writes(monkeypatch)
    assert run(args) == 0
    assert written == []
    for name in GENERATED:
        assert (tmp_path / name).read_bytes() == before[name]
        assert (tmp_path / name).stat().st_mtime_ns == 10**18


@pytest.mark.parametrize("damage", [
    lambda data: data[:-1],  # truncated: the size differs
    lambda data: data[:100] + bytes([data[100] ^ 1]) + data[101:],  # same size
])
def test_generate_again_rewrites_a_damaged_output(tmp_path, monkeypatch, damage):
    monkeypatch.delenv("LAXFORGE_CACHE", raising=False)
    args = ["generate", "--m", "5", "--n", "4", "--out", str(tmp_path)]
    assert run(args) == 0
    good = {name: (tmp_path / name).read_bytes() for name in GENERATED}
    sigma, r = (tmp_path / name for name in GENERATED)
    sigma.write_bytes(damage(good[sigma.name]))
    written = _spy_writes(monkeypatch)
    assert run(args) == 0
    assert written == [sigma]
    assert sigma.read_bytes() == good[sigma.name] and r.read_bytes() == good[r.name]


def test_shared_monomials_are_unchanged_by_a_full_verify(capsys):
    from laxforge import qring
    from laxforge.qring import ONE, ZERO, LaurentPoly

    assert run(["verify", "--m", "5", "--n", "4", "--suite", "all"]) == 0
    capsys.readouterr()
    assert ONE == LaurentPoly({0: 1}) and ONE.terms == {0: 1}
    assert ZERO == LaurentPoly() and ZERO.terms == {}
    assert len(qring._MONOMIALS) > 10
    for (k, sign), p in qring._MONOMIALS.items():
        fresh = LaurentPoly({k: sign})
        assert p == fresh and p.terms == {k: sign} and hash(p) == hash(fresh)


def test_a_shared_dict_is_written_once_at_one_indent(monkeypatch):
    from laxforge import cli

    shared = {"den": ["1"], "num": ["2", "-1"]}
    doc = {"entries": {"1,1": shared, "2,2": shared, "3,3": {"den": [], "num": ["0"]}}}
    written = []
    write = cli._write

    def spy(x, pad, memo):
        written.append(id(x))
        return write(x, pad, memo)

    monkeypatch.setattr(cli, "_write", spy)
    assert _canonical_bytes(doc) == json.dumps(doc, sort_keys=True, indent=1).encode() + b"\n"
    # the second occurrence is looked up: its keys are not written again
    assert written.count(id(shared)) == 2 and written.count(id(shared["num"])) == 1


def test_a_shared_list_is_written_anew_at_another_indent():
    # a memo keyed by the object alone would write the second occurrence
    # with the first one's indentation
    shared = [[1, 2, "s^2"], {"a": None}]
    doc = {"top": shared, "deeper": {"again": shared}, "last": [shared, shared]}
    want = json.dumps(doc, sort_keys=True, indent=1)
    texts = {json.dumps(shared, indent=1).replace("\n", "\n" + " " * k) for k in (1, 2, 3)}
    assert len(texts) == 3  # its text differs at each depth
    assert _canonical_bytes(doc) == want.encode() + b"\n"


@pytest.mark.parametrize("mn, entries, objects", [((3, 2), 61, 19), ((3, 10), 469, 58)])
def test_spectral_entries_share_one_object_per_term_list(mn, entries, objects):
    from laxforge.cli import Context

    for kind in ("untwisted", "twisted"):
        spec = Context(*mn).spectral(kind)
        doc = spec.to_json()["entries"]
        assert len(doc) == entries
        assert len({id(v) for v in doc.values()}) == objects == len(spec.entry_terms[1])


def _matmul_dims(monkeypatch):
    """The dimension of every GradedMatrix product, in call order."""
    from laxforge.gradedmat import GradedMatrix

    dims = []
    matmul = GradedMatrix.__matmul__

    def spy(self, other):
        dims.append(self.dim)
        return matmul(self, other)

    monkeypatch.setattr(GradedMatrix, "__matmul__", spy)
    return dims


CONSTANT_SUITES = ["ybe", "lax-ybe", "intertwine", "delta", "qcom", "serre",
                   "extra-serre", "appendix", "opposite", "path-independence"]


@pytest.mark.parametrize("suites", [["ybe", "lax-ybe"], ["lax-ybe", "ybe"], CONSTANT_SUITES])
def test_lax_ybe_on_v_reuses_the_ybe_products(monkeypatch, capsys, suites):
    # W = V: ybe and lax-ybe assert one identity, so adding lax-ybe to a
    # job adds no V (x) V (x) V product; each suite still reports its own
    dims = _matmul_dims(monkeypatch)

    def products(names):
        dims.clear()
        assert run(["verify", "--m", "3", "--n", "2",
                    *(a for s in names for a in ("--suite", s))]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        return dims.count(125), {r["check"]: r for r in reports}

    without, _ = products([s for s in suites if s != "lax-ybe"])
    count, reports = products(suites)
    assert count == without and count >= 4
    assert reports["ybe"]["status"] == reports["lax_ybe"]["status"] == "pass"
    assert reports["ybe"]["relations_checked"] == reports["lax_ybe"]["relations_checked"] == 1


def test_each_job_multiplies_its_own_ybe_products(monkeypatch, capsys):
    # the kept comparison lives on one job's R: a second job, in the same
    # process, multiplies again, and so does lax-ybe on W = trivial
    dims = _matmul_dims(monkeypatch)
    for _ in range(2):
        assert run(["verify", "--m", "3", "--n", "2", "--suite", "ybe", "--suite", "lax-ybe"]) == 0
    assert dims.count(125) == 8
    dims.clear()
    assert run(["verify", "--m", "3", "--n", "2", "--rep", "trivial", "--suite", "lax-ybe"]) == 0
    assert dims.count(25) == 4 and 125 not in dims
    capsys.readouterr()


def _flip_assembled_r(monkeypatch):
    """Make every job assemble R with its first off-diagonal entry negated."""
    from laxforge import cli
    from laxforge.gradedmat import GradedMatrix
    from laxforge.laxengine import RTensor

    assemble = cli.assemble_R

    def flipped(sigma):
        r = assemble(sigma)
        entries = dict(r.matrix.entries)
        key = next(k for k in sorted(entries) if k[0] != k[1])
        entries[key] = -entries[key]
        matrix = GradedMatrix(r.matrix.gradings, entries)
        return RTensor(r.dims, matrix, r.kind, r.gradings_v, r.gradings_w)

    monkeypatch.setattr(cli, "assemble_R", flipped)


def test_a_flipped_r_fails_ybe_and_lax_ybe_in_one_job(monkeypatch, capsys):
    _flip_assembled_r(monkeypatch)
    dims = _matmul_dims(monkeypatch)

    def witnesses(*suites):
        dims.clear()
        assert run(["verify", "--m", "3", "--n", "2",
                    *(a for s in suites for a in ("--suite", s))]) == 1
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert all(r["status"] == "fail" and r["relations_checked"] == 1 for r in reports)
        return {r["check"]: r["witness"] for r in reports}, dims.count(125)

    found, both = witnesses("ybe", "lax-ybe")
    ybe, lax = found["ybe"], found["lax_ybe"]
    # the job of both suites multiplies as often as ybe alone: the four
    # packed products and the four Laurent ones of the witness
    assert witnesses("ybe") == ({"ybe": ybe}, both) and both == 8
    assert witnesses("lax-ybe")[0] == {"lax_ybe": lax}
    assert ybe["relation"] == "R12 R13 R23 = R23 R13 R12"
    assert lax["relation"] == "r12 R13 R23 = R23 R13 r12"
    assert {**ybe, "relation": None} == {**lax, "relation": None}


def test_failing_text_report_is_pinned(monkeypatch, capsys):
    # each failing suite prints its count line, then its witness line
    _flip_assembled_r(monkeypatch)
    assert run(["verify", "--m", "3", "--n", "2", "--suite", "ybe", "--suite", "lax-ybe",
                "--suite", "delta", "--format", "text"]) == 1
    assert capsys.readouterr().out == (
        "ybe: fail (1 relations)\n"
        "  witness: R12 R13 R23 = R23 R13 R12 at (26,2): "
        "lhs = 1*s^-6 + -3*s^-2 + 2*s^2, rhs = -1*s^-6 + 1*s^-2\n"
        "lax_ybe: fail (1 relations)\n"
        "  witness: r12 R13 R23 = R23 R13 r12 at (26,2): "
        "lhs = 1*s^-6 + -3*s^-2 + 2*s^2, rhs = -1*s^-6 + 1*s^-2\n"
        "delta_property: fail (1 relations)\n"
        "  witness: (id (x) Delta) R = R13 R12 at (26,2): "
        "lhs = 1*s^-4 + -1, rhs = -1*s^-4 + 1\n"
    )


def test_a_failing_sampler_multiplies_only_for_its_witness(monkeypatch, capsys):
    # once a sample has failed, later failing samples are only counted: the
    # symbolic triple products are built for the witness alone
    _flip_assembled_r(monkeypatch)
    dims = _matmul_dims(monkeypatch)
    found = []
    for samples in ("1", "4"):
        dims.clear()
        assert run(["verify", "--m", "3", "--n", "2", "--suite", "spectral-twisted",
                    "--samples", samples]) == 1
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert report["relations_checked"] == int(samples)
        found.append((report["witness"], dims.count(125)))
    assert found[0] == found[1] and found[0][1] == 4


def _vector_doc_with_l_gauged(name):
    """The osp(3|2) vector representation document with e_l doubled and
    f_l halved: still a module, but not V's matrices."""
    from laxforge.gradedmat import build_vector_rep
    from laxforge.qring import LaurentPoly
    from laxforge.superroot import build_algebra

    doc = build_vector_rep(build_algebra(3, 2)).to_json()
    for kind, c in (("e", Fraction(2)), ("f", Fraction(1, 2))):
        doc[kind]["l"] = [[r, col, str(LaurentPoly.parse(t) * c)] for r, col, t in doc[kind]["l"]]
    doc["name"] = name
    return doc


@pytest.mark.parametrize("suite", ["ybe", "lax-ybe", "intertwine"])
def test_a_rep_file_named_vector_must_be_v(tmp_path, capsys, suite):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(_vector_doc_with_l_gauged("vector")))
    assert run(["verify", "--m", "3", "--n", "2", "--rep", str(path), "--suite", suite]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        'error: a representation named "vector" must be the vector representation '
        "of osp(3|2) (gradings, weights, e and f); this one differs, so give it "
        "another name\n"
    )


def test_the_same_module_under_another_name_is_a_w(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(_vector_doc_with_l_gauged("gauged")))
    args = ["verify", "--m", "3", "--n", "2", "--rep", str(path)]
    assert run([*args, "--suite", "lax-ybe", "--suite", "qcom"]) == 0
    assert run([*args, "--suite", "ybe"]) == 2
    assert capsys.readouterr().err == "error: suite 'ybe' requires the vector representation\n"


def test_a_rep_file_equal_to_v_is_v(tmp_path, capsys):
    from laxforge.gradedmat import build_vector_rep
    from laxforge.superroot import build_algebra

    path = tmp_path / "rep.json"
    path.write_text(json.dumps(build_vector_rep(build_algebra(3, 2)).to_json()))
    suites = ["--suite", "ybe", "--suite", "lax-ybe", "--suite", "intertwine"]
    assert run(["verify", "--m", "3", "--n", "2", "--rep", str(path), *suites]) == 0
    from_file = capsys.readouterr().out
    assert run(["verify", "--m", "3", "--n", "2", *suites]) == 0
    assert capsys.readouterr().out == from_file


def test_a_rep_file_named_vector_that_breaks_a_relation_fails_it(tmp_path, capsys):
    # the relations are checked first, so a corrupted V is a failed
    # identity (exit 1) with its relation named, not a usage error
    doc = _vector_doc_with_l_gauged("vector")
    doc["f"]["l"] = [[r, c, str(Fraction(2) * Fraction(t))] for r, c, t in doc["f"]["l"]]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", "--m", "3", "--n", "2", "--rep", str(path), "--suite", "ybe"]) == 1
    assert capsys.readouterr().err == "check failed: [e_l, f_l] relation fails\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_follow_the_umask(tmp_path, monkeypatch, capsys, umask, mode):
    monkeypatch.delenv("LAXFORGE_CACHE", raising=False)
    old = os.umask(umask)
    try:
        assert run(["generate", "--m", "3", "--n", "0", "--out", str(tmp_path / "gen"),
                    "--cache-dir", str(tmp_path / "cache")]) == 0
        assert run(["verify", "--m", "3", "--n", "0", "--suite", "ybe",
                    "--out", str(tmp_path / "report.json")]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    written = [*(tmp_path / "gen").iterdir(), *(tmp_path / "cache").iterdir(),
               tmp_path / "report.json"]
    assert len(written) == 7
    assert {p.stat().st_mode & 0o777 for p in written} == {mode}


def _not_replaced(path) -> str:
    return f"error: {path} exists and is not a regular file; not replacing it\n"


@pytest.mark.parametrize("linked", [False, True])
def test_out_never_replaces_a_fifo(tmp_path, capsys, linked):
    # a FIFO given to --out, or a symlink to one, stays as it was
    fifo = tmp_path / "out-fifo"
    os.mkfifo(fifo)
    out = tmp_path / "out-link" if linked else fifo
    if linked:
        os.symlink("out-fifo", out)
    assert run(["verify", "--m", "3", "--n", "0", "--suite", "ybe", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", _not_replaced(out))
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and out.is_symlink() == linked
    assert {p.name for p in tmp_path.iterdir()} == {"out-fifo", out.name}


def test_generate_never_replaces_a_fifo_artifact(tmp_path, monkeypatch, capsys):
    # every target is checked before any is written: the sigma artifact
    # before the FIFO is neither written nor printed, nor is a cache entry
    monkeypatch.delenv("LAXFORGE_CACHE", raising=False)
    out = tmp_path / "gen"
    out.mkdir()
    fifo = out / "r_vector_3_0.json"
    os.mkfifo(fifo)
    assert run(["generate", "--m", "3", "--n", "0", "--out", str(out),
                "--cache-dir", str(tmp_path / "cache")]) == 2
    assert capsys.readouterr() == ("", _not_replaced(fifo))
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.rglob("*")] == ["gen", "r_vector_3_0.json"]


@pytest.mark.parametrize("suffix", ["json", "sha256"])
def test_generate_never_reads_a_fifo_cache_entry(tmp_path, monkeypatch, suffix):
    # a FIFO in the cache is a miss, not a read that blocks for good; the
    # store then refuses it.  A new process, so that a hang fails the test.
    monkeypatch.delenv("LAXFORGE_CACHE", raising=False)
    cache = tmp_path / "cache"
    args = ["generate", "--m", "3", "--n", "0", "--cache-dir", str(cache), "--out"]
    assert run(args + [str(tmp_path / "gen")]) == 0
    (entry,) = cache.glob(f"*-r.{suffix}")
    entry.unlink()
    os.mkfifo(entry)
    fresh = run_fresh(args + [str(tmp_path / "gen2")], timeout=60)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (2, "", _not_replaced(entry))
    assert stat.S_ISFIFO(os.lstat(entry).st_mode) and not (tmp_path / "gen2").exists()


def test_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    target, link = tmp_path / "out-target.txt", tmp_path / "out-link.txt"
    target.write_text("old\n")
    os.symlink("out-target.txt", link)
    assert run(["verify", "--m", "3", "--n", "0", "--suite", "ybe", "--format", "text",
                "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == "out-target.txt"
    assert target.read_text() == "ybe: pass (1 relations)\n"
    assert {p.name for p in tmp_path.iterdir()} == {"out-target.txt", "out-link.txt"}
