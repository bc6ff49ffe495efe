import hashlib
import json
import os
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


def test_usage_error_exit_code_2(tmp_path, capsys):
    assert run(["generate", "--m", "2", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert "m > 2" in err


def test_unknown_suite_exit_code_2(capsys):
    assert run(["verify", "--m", "3", "--n", "0", "--suite", "nonsense"]) == 2


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
    out = tmp_path / "out"
    code = run([
        command[0], "--m", "3", "--n", "0", *command[1:],
        "--format", "text", "--out", str(out),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "--format text" in captured.err
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


@pytest.mark.parametrize("rep", ["trivial", "some/rep.json"])
def test_spectral_rejects_non_vector_rep(monkeypatch, capsys, rep):
    from laxforge import cli

    def never(*args, **kwargs):
        raise AssertionError("nothing may be built")

    monkeypatch.setattr(cli, "build_algebra", never)
    code = run([
        "spectral", "--m", "3", "--n", "0", "--kind", "twisted", "--rep", rep,
        "--z", "1/3", "--s", "2",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: spectral builds r(z) on the vector representation only, "
        f"not on --rep {rep}\n"
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
    from laxforge import spectral
    from laxforge.gradedmat import GradedMatrix

    # a braced factor that no longer reproduces R is a construction bug
    monkeypatch.setattr(
        spectral, "braces_matrix", lambda alg, sigma: GradedMatrix((0,))
    )
    assert run(["spectral", "--m", "3", "--n", "0", "--kind", "twisted"]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "internal error: braced factor does not reproduce the constant R-matrix\n"
    )
    assert captured.out == ""


def test_parser_reused_across_calls_matches_fresh_processes(monkeypatch, capsys):
    # main keeps one parser per process; consecutive calls, with an
    # argparse usage error between them, print what fresh processes print
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    src = str(Path(laxforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
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
        fresh = subprocess.run(
            [sys.executable, "-m", "laxforge.cli", *args],
            capture_output=True, text=True, env=env,
        )
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


def test_console_reads_a_separated_negative_rational(capsys):
    # main(None) reads sys.argv: a fresh process takes --s -5/3 as --s=-5/3
    src = str(Path(laxforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    fresh = subprocess.run(
        [sys.executable, "-m", "laxforge.cli", "eval", "--m", "3", "--n", "0",
         "--s", "-5/3"],
        capture_output=True, text=True, env=env,
    )
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


def test_a_sigma_hat_diag_entry_negated_fails_the_braces_check(monkeypatch, capsys):
    # the braced factor shares R's off-diagonal blocks, so its diagonal
    # blocks are what the check compares: one sign flipped there must fail
    from laxforge import spectral
    from laxforge.gradedmat import GradedMatrix

    build = spectral.sigma_hat_diag

    def flipped(alg):
        diag = build(alg)
        a = next(a for a, m in enumerate(diag) if m.entries)
        key = min(diag[a].entries)
        entries = dict(diag[a].entries)
        entries[key] = -entries[key]
        diag[a] = GradedMatrix(diag[a].gradings, entries)
        return diag

    monkeypatch.setattr(spectral, "sigma_hat_diag", flipped)
    assert run(["spectral", "--m", "5", "--n", "4", "--kind", "untwisted"]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "internal error: braced factor does not reproduce the constant R-matrix\n"
    )
    assert captured.out == ""


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
