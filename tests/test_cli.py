import hashlib
import json
from fractions import Fraction

import pytest

from laxforge.cli import main


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
