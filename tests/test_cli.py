import hashlib
import json
import shlex
import sys
from pathlib import Path

import pytest

import launch
from schedule import run_a_then_b
from test_exact import LINE_DAMAGE, P_ORACLE
from partitions import cli
from partitions.exact import CacheFormatError, cache_load
from partitions.rademacher import p_series

RESIDUES_PATH = Path(__file__).with_name("partition_residues.json")


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_unknown_flag_rejected(capsys):
    code, _, err = run(["exact", "7", "--bogus"], capsys)
    assert code == 2
    assert "bogus" in err


def test_series_prints_past_the_int_str_limit(capsys):
    # p(17782794) has 4690 digits, past Python's default limit of 4300 on
    # int-to-str conversion; the CLI lifts the limit only while it formats
    row, = [r for r in json.loads(RESIDUES_PATH.read_text()) if r["n"] == 17782794]
    limit = sys.get_int_max_str_digits()
    code, out, err = run(["series", "17782794"], capsys)
    assert code == 0, err
    residue = 0
    for digit in json.loads(out)["rounded"]:
        residue = (residue * 10 + int(digit)) % 2**64
    assert residue == row["mod_2_64"]
    assert sys.get_int_max_str_digits() == limit


def test_two_series_threads_each_lift_the_int_str_limit(capsys, monkeypatch):
    # Thread a stops inside its lifted block, at its first mp.nstr; then
    # thread b prints the same report.  If b's block could start then, b
    # would find the limit already lifted and lift and restore nothing, and
    # a's restore would make b's str(p(n)) raise.  One lock around the block
    # makes b wait for a's whole block instead.
    from mpmath import mp

    report = p_series(17782794)  # p(n) has 4690 digits
    monkeypatch.setattr("partitions.rademacher.p_series", lambda n: report)

    def series():
        return cli.main(["series", "17782794"])

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        codes = run_a_then_b(monkeypatch, mp, "nstr", series, series)
        assert codes == (0, 0)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    first, second = out.splitlines()
    assert first == second and len(json.loads(first)["rounded"]) == 4690 and err == ""


def test_ak_prints_past_the_int_str_limit(capsys):
    # ak lifts no int-to-str limit: at the context's ceiling of 4096 bits a
    # value carries at most 4096 + 16 bits, and mp.nstr of it converts far
    # fewer than 4300 digits. A_25(24) = 0 and A_k(n) = 0 for k = 3137^2
    # (6274 Selberg roots), so each prints a tiny computed mpf, and the
    # limit is left as it was found
    from mpmath import mpf

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for k, n in ((25, 24), (9840769, 9430737)):
            code, out, err = run(["ak", str(k), str(n), "--prec", "4096"], capsys)
            assert code == 0, err
            value, = out.split()
            assert abs(mpf(value)) < mpf(2) ** -1000
            assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_prints_at_its_ceiling_under_the_default_int_str_limit(capsys):
    # bessel and verify lift no int-to-str limit either: their values carry
    # at most 4096 + 16 bits. x = 99999.999 is the largest Bessel x at full
    # width
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(["bessel", "99999.999", "--prec", "4096"], capsys)
        assert code == 0 and out.startswith("series = ") and len(out.splitlines()) == 3, err
        for law in ("eta", "ftransform"):
            code, out, err = run(["verify", law, "--samples", "2", "--prec", "4096"], capsys)
            assert (code, out.endswith("all ok\n")) == (0, True), err
    finally:
        sys.set_int_max_str_digits(limit)


def test_exact_and_series_agree(capsys):
    _, exact_out, _ = run(["exact", "30"], capsys)
    _, series_out, _ = run(["series", "30"], capsys)
    assert json.loads(series_out)["rounded"] == exact_out.strip()


def test_verify_ceilings_checked_before_any_case(capsys, monkeypatch):
    # a huge --samples would otherwise build its whole case list first
    def no_cases(count):
        raise AssertionError("cases built")

    monkeypatch.setattr("partitions.modular.eta_verification_cases", no_cases)
    monkeypatch.setattr("partitions.modular.f_transform_cases", no_cases)
    for law in ("eta", "ftransform"):
        for flags, message in (
            (["--samples", str(10**12)], "--samples 1 to 32"),
            (["--samples", "-5"], "--samples 1 to 32"),
            (["--prec", "131072"], "precision must be at most 4096 bits"),
        ):
            code, out, err = run(["verify", law, *flags], capsys)
            assert (code, out) == (2, "") and message in err


def test_cache_flag_round_trip(tmp_path, capsys):
    path = tmp_path / "cache.csv"
    code, out, _ = run(["--cache", str(path), "exact", "30"], capsys)
    assert code == 0
    assert out.strip() == "5604"
    cache = cache_load(path)
    assert cache.max_n == 30
    # a second run only reads it
    code, out, _ = run(["--cache", str(path), "exact", "10"], capsys)
    assert code == 0
    assert out.strip() == "42"
    assert cache_load(path).max_n == 30


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    path = tmp_path / "envcache.csv"
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(path))
    code, out, _ = run(["exact", "12"], capsys)
    assert code == 0
    assert out.strip() == "77"
    assert path.exists()


def test_corrupt_cache_is_reported(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\nx,2\n")
    code, _, err = run(["--cache", str(path), "exact", "5"], capsys)
    assert code == 2
    assert "line 2" in err


def test_series_json_error_budget(capsys):
    code, out, _ = run(["series", "100"], capsys)
    assert code == 0
    payload = json.loads(out)
    t, e = float(payload["truncation_bound"]), float(payload["float_error_bound"])
    assert e == float(f"{p_series(100).float_error_bound:.10g}")
    assert 0 < t < 0.25 and 0 < e and t + e < 0.25
    assert float(payload["gap"]) <= t + e


def test_unchanged_cache_is_not_rewritten(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cache.csv"
    code, _, _ = run(["--cache", str(path), "exact", "30"], capsys)
    assert code == 0

    def no_save(cache, target):
        raise AssertionError("cache rewritten without new values")

    monkeypatch.setattr(cli, "cache_save", no_save)
    for argv in (["exact", "10"], ["exact", "30"], ["asym", "20"], ["table", "--list", "5,25"]):
        code, _, _ = run(["--cache", str(path)] + argv, capsys)
        assert code == 0
    monkeypatch.undo()
    code, out, _ = run(["--cache", str(path), "exact", "40"], capsys)
    assert out.strip() == "37338"
    assert cache_load(path).max_n == 40


def test_truncated_cache_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "cache.csv"
    run(["--cache", str(path), "exact", "30"], capsys)
    path.write_bytes(path.read_bytes()[:-3])
    damaged = path.read_bytes()
    # p(5) lies in the intact prefix, and a hit reads no further
    code, out, _ = run(["--cache", str(path), "exact", "5"], capsys)
    assert code == 0
    assert out == "7\n"
    for n in ("30", "40"):
        code, out, err = run(["--cache", str(path), "exact", n], capsys)
        assert code == 2
        assert out == ""
        assert "truncated" in err
    assert path.read_bytes() == damaged


def test_unusable_cache_path_exits_1(tmp_path, capsys):
    # I/O trouble is exit 1, not a usage error: a directory cannot be read as
    # a cache, and a cache in a missing directory cannot be saved
    for path in (tmp_path, tmp_path / "missing" / "c.txt"):
        code, out, err = run(["--cache", str(path), "exact", "5"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []  # no temporary file left behind


def test_series_certification_failure_exits_1(capsys, monkeypatch):
    from partitions import rademacher

    def uncertified(n):
        raise rademacher.CertificationError(f"p({n}) not certified")

    monkeypatch.setattr(rademacher, "p_series", uncertified)
    code, out, err = run(["series", "5"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: p(5) not certified\n"


def test_negative_n_with_cache_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "cache.csv"
    run(["--cache", str(path), "exact", "10"], capsys)
    code, out, err = run(["--cache", str(path), "exact", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "n must be nonnegative" in err


def test_cache_hit_reads_no_prefix(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cache.csv"
    run(["--cache", str(path), "exact", "15000"], capsys)
    saved = path.read_bytes()
    error_rows = [["asym", "15"], ["table", "--list", "0,15,30"], ["table", "--set", "paper"]]
    uncached = [run(argv, capsys) for argv in error_rows]

    def no_load(*args):
        raise AssertionError("a cache hit read the whole file")

    monkeypatch.setattr(cli, "cache_load", no_load)
    for n in (0, 15, 30):
        p = P_ORACLE[n]
        outputs = {"plain": f"{p}\n", "csv": f"n,p_n\n{n},{p}\n", "json": f'{{"n": {n}, "p": "{p}"}}\n'}
        for fmt, out in outputs.items():
            assert run(["--format", fmt, "--cache", str(path), "exact", str(n)], capsys) == (0, out, "")
    # asym and table look each p(n) up too; table --list 0,... is refused by
    # L(0), as it is with no cache
    assert [run(["--cache", str(path), *argv], capsys) for argv in error_rows] == uncached
    assert [code for code, _, _ in uncached] == [0, 2, 0]
    assert path.read_bytes() == saved


def test_refused_call_writes_no_cache(tmp_path, capsys):
    # p(n) is computed before L(n) refuses n, but the table is saved only
    # once the rows are built
    path = tmp_path / "cache.csv"
    for argv in (["asym", "0"], ["table", "--list", "5,0"]):
        code, out, err = run(["--cache", str(path), *argv], capsys)
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert not path.exists()


def test_one_miss_among_hits_extends_and_saves_the_cache(tmp_path, capsys):
    path = tmp_path / "cache.csv"
    run(["--cache", str(path), "exact", "30"], capsys)
    argv = ["table", "--list", "5,40,25"]
    assert run(["--cache", str(path), *argv], capsys) == run(argv, capsys)
    assert cache_load(path).max_n == 40


def test_damaged_line_read_by_a_hit_fails_the_call(tmp_path, capsys):
    # p(0..30) cut short by 3 bytes: the bisection for n = 29 reads the last
    # line, so the whole read names it; the one for n = 5 never reaches it
    path = tmp_path / "cache.csv"
    run(["--cache", str(path), "exact", "30"], capsys)
    path.write_bytes(path.read_bytes()[:-3])
    assert run(["--cache", str(path), "exact", "29"], capsys) == (
        2, "", f"error: {path}: line 31: truncated (no line end)\n")
    assert run(["--cache", str(path), "exact", "5"], capsys) == (0, "7\n", "")


@pytest.mark.parametrize("n", [0, 5, 10])
@pytest.mark.parametrize("kind", LINE_DAMAGE)
def test_damage_on_the_line_for_n_falls_back_to_the_prefix_read(tmp_path, capsys, kind, n):
    # the lookup finds no p(n), so the whole read names the line, and the call exits 2
    damage, _ = LINE_DAMAGE[kind]
    lines = [f"{m},{P_ORACLE[m]}\n" for m in range(21)]
    lines[n:n + 1] = damage(n)
    if not lines[n].endswith("\n"):  # a line with no line end is the file's last
        del lines[n + 1:]
    path = tmp_path / "cache.csv"
    path.write_text("".join(lines), newline="")
    with pytest.raises(CacheFormatError) as info:
        cache_load(path)
    assert run(["--cache", str(path), "exact", str(n)], capsys) == (2, "", f"error: {info.value}\n")


# The CLI's contract: every subcommand, each --format where one is honoured,
# and the invalid inputs; long outputs are pinned by the SHA-256 of their
# text. Each row runs in process and in launched processes.
GOLDEN = [
    # no subcommand: usage on stderr
    ("", 2, ""),
    ("exact 7", 0, "15\n"),
    ("--format csv exact 7", 0, "n,p_n\n7,15\n"),
    ("--format json exact 7", 0, '{"n": 7, "p": "15"}\n'),
    ("exact 200", 0, "3972999029388\n"),
    ("exact -1", 2, ""),
    ("exact 10000000", 2, ""),
    ("series 7", 0, "sha256:adfc3e528176f45732623f4826760ff110ce0bc50f4d3f28606c3aa5bac546e4"),
    ("series 200", 0, "sha256:4309960366f79a02a7cc6b0ad864fc50431d03017bbd6a15b30b5f8ccf853070"),
    ("series 100", 0, "sha256:ee51cc666d04284f7d3257cb7964e3a40dfa71b3de910802f9def2d3a6caeef2"),
    ("series 7 --terms 3 --prec 80", 2, ""),
    ("series 0", 2, ""),
    ("series -3", 2, ""),
    ("series 7 --prec 63", 2, ""),
    ("series 7 --terms 0", 2, ""),
    ("series 100000000000000000000", 2, ""),
    ("series 1" + "0" * 400, 2, ""),
    ("asym 10", 0, "sha256:c93c969c7b874d8c644d944a5101fccfebd69db2210c2248dd725db6714b1d76"),
    ("--format csv asym 10", 0, "sha256:907ca4fbf433a3a5b4055be893d6f6d1439f00af90d123c471fa4de581b930d7"),
    ("--format json asym 50", 0, "sha256:6043f317bb1bcdfe4a5101e768aa960bc3c21ad751f8a4fda5595c060b1fb1bc"),
    ("asym 10 --prec 200", 2, ""),
    ("asym 0", 2, ""),
    ("asym 100001", 2, ""),
    ("asym 10 --prec 63", 2, ""),
    ("table --list 10,50", 0, "sha256:9cfe6279df077050afa2adefb65264110729f577893e9873701b4a907ce68757"),
    ("table --set paper", 0, "sha256:e2899af93fb16bc134cfa13c982100ad58e52d425b5b20fdd86e1f31e683c8ed"),
    ("table", 2, ""),
    ("table --list 0", 2, ""),
    ("table --list 10,x", 2, ""),
    ("table --list ,", 2, ""),
    ("table --list 10,100001", 2, ""),
    ("farey 5", 0, "sha256:ce66ff621bd90642197142ee34d0161550970f3ff79a79e7ae3df8919b62e00a"),
    ("farey 0", 2, ""),
    ("farey 1001", 2, ""),
    ("ford 5", 0, "sha256:9fa359ea8ae254da61c880072142f4d22b5224ec862c318baf483359791b5fa2"),
    ("ford 2", 0, "h,k,k1,k2,w1_re,w1_im,w2_re,w2_im\n1,2,1,1,4/5,2/5,4/5,-2/5\n1,1,2,2,1/5,2/5,1/5,-2/5\n"),
    ("ford 0", 2, ""),
    ("ford 1001", 2, ""),
    ("dedekind 5 7", 0, "-1/14\n"),
    ("dedekind 1 3", 0, "1/18\n"),
    ("dedekind 5 1", 0, "0/1\n"),
    # s(2,4) = s(1,2) = 0: the sawtooth vanishes where hr/k is an integer
    ("dedekind 2 4", 0, "0/1\n"),
    ("dedekind 1 0", 2, ""),
    ("ak 6 4", 0, "-1.9696155060244161187\n"),
    ("ak 3 2 --prec 100", 0, "-1.2855752193730786526\n"),
    ("ak 1 5", 0, "1.0\n"),
    ("ak 2 3", 0, "-1.0\n"),
    ("ak 0 5", 2, ""),
    ("ak 5 0", 2, ""),
    ("ak 1 5 --prec 63", 2, ""),
    ("ak 10000001 1", 2, ""),
    ("ak 1000000000000 1", 2, ""),
    ("ak 25 24 --prec 131073", 2, ""),
    ("ak 25 24 --prec 4097", 2, ""),
    ("bessel 1", 0, "sha256:aec0e7f69c6e3eae1c6ee38dc36751cdbe05b923399ee1cae577c59c3694a84d"),
    ("bessel 2.5 --prec 100", 0, "sha256:b0bf8d2b0d5fa50d90e7c147f323450421d1ce098ee0ff9db9a84aee1393587a"),
    ("bessel 0", 2, ""),
    ("bessel -1", 2, ""),
    ("bessel bogus", 2, ""),
    ("bessel 1 --prec 63", 2, ""),
    ("bessel nan", 2, ""),
    ("bessel inf", 2, ""),
    ("bessel 1e6", 2, ""),
    ("bessel 1e400", 2, ""),
    ("bessel 1e-1300", 2, ""),
    ("bessel 1 --prec 32769", 2, ""),
    ("bessel 1 --prec 4097", 2, ""),
    # refused before the series' 10^5 terms run
    ("bessel 100000 --prec 4097", 2, ""),
    ("verify eta --samples 3", 0, "sha256:106458c648986ba39832555d9b82cd5d5e807d07130540b56f528e5ecc561d5e"),
    ("verify ftransform --samples 3 --prec 100", 0, "sha256:5494a3785246491a1ae432f607268ad4dd9f54cf4013a2ffa10834ec8b1ec512"),
    ("verify eta --samples 5", 0, "sha256:d667d47a64a4e08cef87fe3f091dae3d11b7a3f1f4373c6079e9b10019e375fa"),
    ("verify ftransform --samples 5", 0, "sha256:b62f29bf3592df2da4c0dfda9683bb85170523f76f27d1b2afbc3b8af34f39d1"),
    ("verify eta --samples 0", 2, ""),
    ("verify eta --prec 63", 2, ""),
    ("verify eta --prec 4097", 2, ""),
    ("verify eta --samples 33", 2, ""),
    ("verify ftransform --prec 4097", 2, ""),
    ("verify ftransform --samples 33", 2, ""),
]


def check_golden(code, expected, got_code, out, err):
    assert got_code == code, err
    if expected.startswith("sha256:"):
        assert "sha256:" + hashlib.sha256(out.encode()).hexdigest() == expected
    else:
        assert out == expected
    if code == 0:
        assert err == ""
    if code == 2:
        assert out == "" and err != ""


@pytest.mark.parametrize("line,code,expected", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(line, code, expected, capsys, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    check_golden(code, expected, *run(shlex.split(line), capsys))


@pytest.mark.parametrize("line,code,expected", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output_launched(line, code, expected, monkeypatch):
    # the process's exit code is main's return value; a refusal comes at once
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    for command in launch.cli_commands():
        done = launch.run([*command, *shlex.split(line)], timeout=10 if code == 2 else 60)
        check_golden(code, expected, done.returncode, done.stdout, done.stderr)
