import json

from partitions import cli
from partitions.exact import cache_load


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_exact_basic(capsys):
    code, out, err = run(["exact", "7"], capsys)
    assert code == 0
    assert out == "15\n"
    assert err == ""


def test_exact_larger(capsys):
    code, out, _ = run(["exact", "200"], capsys)
    assert code == 0
    assert out.strip() == "3972999029388"


def test_exact_negative_is_usage_error(capsys):
    code, out, err = run(["exact", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert err != ""


def test_exact_json_and_csv(capsys):
    code, out, _ = run(["--format", "json", "exact", "7"], capsys)
    assert code == 0
    assert json.loads(out) == {"n": 7, "p": "15"}
    code, out, _ = run(["--format", "csv", "exact", "7"], capsys)
    assert code == 0
    assert out == "n,p_n\n7,15\n"


def test_unknown_flag_rejected(capsys):
    code, _, err = run(["exact", "7", "--bogus"], capsys)
    assert code == 2
    assert "bogus" in err


def test_missing_subcommand(capsys):
    code, _, err = run([], capsys)
    assert code == 2


def test_series_json_report(capsys):
    code, out, _ = run(["series", "100"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["rounded"] == "190569292"
    assert payload["n"] == 100
    assert payload["n_terms_used"] == len(payload["terms"])
    assert float(payload["gap"]) < 0.25
    assert payload["terms"][0]["k"] == 1
    # the leading weight is A_1(n) = 1
    assert float(payload["terms"][0]["a_k"]) == 1.0


def test_series_deterministic(capsys):
    code1, out1, _ = run(["series", "42"], capsys)
    code2, out2, _ = run(["series", "42"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_series_flags(capsys):
    code, out, _ = run(["series", "7", "--terms", "3", "--prec", "80"], capsys)
    assert code == 0
    assert json.loads(out)["rounded"] == "15"


def test_series_prec_too_low(capsys):
    code, _, err = run(["series", "7", "--prec", "63"], capsys)
    assert code == 2
    assert "64" in err


def test_series_invalid_n(capsys):
    code, _, err = run(["series", "0"], capsys)
    assert code == 2


def test_asym_plain(capsys):
    code, out, _ = run(["asym", "10"], capsys)
    assert code == 0
    assert "L(10)" in out
    assert "-14.53" in out


def test_asym_csv_and_json(capsys):
    code, out, _ = run(["--format", "csv", "asym", "10"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,p_n,L_n,eps_percent"
    assert lines[1].startswith("10,42,48.10")
    code, out, _ = run(["--format", "json", "asym", "50"], capsys)
    payload = json.loads(out)
    assert payload["p"] == "204226"
    assert payload["eps_percent"] == "-6.54"


def test_table_list(capsys):
    code, out, _ = run(["table", "--list", "10,50"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,p_n,L_n,eps_percent"
    assert lines[1].startswith("10,42,")
    assert lines[2].startswith("50,204226,")


def test_table_reference_set(capsys):
    code, out, _ = run(["table", "--set", "paper"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,p_n,L_n,eps_percent"
    assert len(lines) == 18
    assert lines[1].startswith("10,42,") and lines[1].endswith("-14.53")
    assert lines[-1].startswith("15000,")
    assert lines[-1].split(",")[1] == (
        "262633793640379084137102319165906698802932055965437249406588587971"
        "375120081791056718639088570913175942816125969709246029351672130266"
    )


def test_exact_and_series_agree(capsys):
    _, exact_out, _ = run(["exact", "30"], capsys)
    _, series_out, _ = run(["series", "30"], capsys)
    assert json.loads(series_out)["rounded"] == exact_out.strip()


def test_table_requires_a_selection(capsys):
    code, _, err = run(["table"], capsys)
    assert code == 2


def test_table_bad_list(capsys):
    code, _, err = run(["table", "--list", "10,x"], capsys)
    assert code == 2


def test_farey_csv(capsys):
    code, out, _ = run(["farey", "5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "h,k"
    assert len(lines) == 12
    assert lines[1] == "0,1"
    assert lines[-1] == "1,1"
    assert "2,5" in lines


def test_farey_rejects_zero(capsys):
    code, _, err = run(["farey", "0"], capsys)
    assert code == 2


def test_ford_csv(capsys):
    code, out, _ = run(["ford", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "h,k,k1,k2,w1_re,w1_im,w2_re,w2_im"
    assert lines[1] == "1,2,1,1,4/5,2/5,4/5,-2/5"
    assert len(lines) == 3  # fractions 1/2 and 1/1


def test_dedekind_output(capsys):
    code, out, _ = run(["dedekind", "1", "3"], capsys)
    assert code == 0
    assert out.strip() == "1/18"
    code, out, _ = run(["dedekind", "5", "1"], capsys)
    assert out.strip() == "0/1"
    # s(2,4) = s(1,2) = 0: the sawtooth vanishes where hr/k is an integer
    code, out, _ = run(["dedekind", "2", "4"], capsys)
    assert code == 0
    assert out.strip() == "0/1"


def test_dedekind_rejects_bad_k(capsys):
    code, _, err = run(["dedekind", "1", "0"], capsys)
    assert code == 2


def test_ak_values(capsys):
    code, out, _ = run(["ak", "1", "5"], capsys)
    assert code == 0
    assert float(out) == 1.0
    code, out, _ = run(["ak", "2", "3"], capsys)
    assert float(out) == -1.0


def test_bessel_output(capsys):
    code, out, _ = run(["bessel", "1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("series = 0.2935")
    assert lines[1].startswith("closed = 0.2935")
    assert "abs_diff" in lines[2]


def test_bessel_rejects_nonpositive(capsys):
    code, _, err = run(["bessel", "-1"], capsys)
    assert code == 2
    code, _, err = run(["bessel", "bogus"], capsys)
    assert code == 2


def test_verify_eta(capsys):
    code, out, _ = run(["verify", "eta", "--samples", "5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[-1].endswith("all ok")


def test_verify_ftransform(capsys):
    code, out, _ = run(["verify", "ftransform", "--samples", "5"], capsys)
    assert code == 0
    assert out.splitlines()[-1].endswith("all ok")


def test_verify_bad_samples(capsys):
    code, _, err = run(["verify", "eta", "--samples", "0"], capsys)
    assert code == 2


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
    assert 0 < t < 0.25 and 0 < e < 1e-12
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
    code, out, err = run(["--cache", str(path), "exact", "5"], capsys)
    assert code == 2
    assert out == ""
    assert "truncated" in err
