import importlib
import pkgutil
import re
import types
import typing
from decimal import Decimal
from fractions import Fraction

import pytest
from mpmath import mpc, mpf

import partitions
from launch import python
from partitions.asymptotics import error_row, leading_term, tail_ratio_bound
from partitions.bessel import bessel_i_3_2_closed, bessel_i_series
from partitions.dedekind import dedekind_sum, reciprocity_defect, selberg_roots
from partitions.exact import (
    PartitionCache, cache_lookup, cache_save, p_exact, p_oracle_dp, partition_table_dp,
    pentagonal,
)
from partitions.farey import contour_triples, farey_sequence, rademacher_path, w_chord
from partitions.modular import (
    conjugate_inverse, eta, exp_i_pi_rational, generating_function, verify_eta, verify_f_transform,
)
from partitions.precision import PrecisionContext
from partitions.rademacher import (
    a_k, alpha, default_precision, p_series, r_k, terms_needed, truncation_bound,
)


def _run(script):
    done = python("-c", script)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_exported_name_resolves():
    namespace = {}
    exec("from partitions import *", namespace)
    for module, names in partitions._EXPORTS.items():
        source = importlib.import_module(f"partitions.{module}")
        for name in names.split():
            assert getattr(partitions, name) is getattr(source, name), name
            assert namespace[name] is getattr(source, name), name
    assert callable(partitions.eta)
    assert set(partitions.__all__) <= set(dir(partitions))


def test_no_exported_name_is_a_submodule():
    # so loading a submodule never rebinds an exported name of the package
    submodules = {module.name for module in pkgutil.iter_modules(partitions.__path__)}
    assert not submodules & set(partitions.__all__)
    assert "selberg_sum" not in partitions.__all__
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("partitions.eta")
    assert type(partitions) is types.ModuleType


def test_submodules_are_attributes_after_bare_import():
    out = _run(
        "import partitions\n"
        "print(partitions.rademacher.p_series(100).rounded, partitions.rademacher.a_k(1, 5))\n"
    )
    assert out.split()[0] == "190569292"


def test_every_annotation_resolves():
    # typing.get_type_hints evaluates each annotation string in its module, so
    # a name imported only inside a function body fails it with NameError
    checked = 0
    for info in pkgutil.iter_modules(partitions.__path__):
        module = importlib.import_module(f"partitions.{info.name}")
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = vars(value).values() if isinstance(value, type) else ()
            for fn in (value, *members):
                if isinstance(fn, types.FunctionType):
                    typing.get_type_hints(fn)
                    checked += 1
    assert checked > 100


def test_dedekind_loads_neither_mpmath_nor_precision():
    # exact Dedekind sums and Selberg's roots are integer code; A_k's floating
    # evaluator lives in partitions.rademacher
    out = _run(
        "import sys\n"
        "import partitions.dedekind\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath' or m == 'partitions.precision'))\n"
    )
    assert out == "[]\n"


def test_farey_loads_no_mpmath():
    # the contour geometry is exact, and its two bound checks are proofs
    out = _run(
        "import sys\n"
        "from fractions import Fraction as F\n"
        "import partitions.farey as farey\n"
        "seq = farey.farey_sequence(5)\n"
        "circles = [farey.ford_circle(f) for f in seq[:2]]\n"
        "chords = [farey.w_chord(*triple, 5) for triple in farey.contour_triples(5)]\n"
        "print(farey.farey_neighbors_check(seq), farey.ford_tangency_class(*circles),\n"
        "      farey.tangency_points(*seq[:3]).frac, len(farey.rademacher_path(5)),\n"
        "      all(farey.chord_bounds_check(c) for c in chords),\n"
        "      farey.chord_bounds_check(farey.w_chord(0, F(1, 2), 1, 50)),\n"
        "      all(farey.arc_length_bound_check(w) for c in chords for w in (c.w1, c.w2)),\n"
        "      farey.arc_length_bound_check(farey.QPoint(1, 0)), chords[0].w1.norm2())\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))\n"
    )
    assert out == "True tangent 1/5 10 True False True True 25/26\n[]\n"


def test_exact_cli_does_not_import_mpmath():
    # exact, dedekind, farey and ford answer in integers and rationals
    script = (
        "import sys\n"
        "import partitions.cli\n"
        "for argv in (['exact', '30'], ['dedekind', '1', '3'], ['farey', '5'], ['ford', '5']):\n"
        "    assert partitions.cli.main(argv) == 0\n"
        "    assert 'mpmath' not in sys.modules, (argv, sorted(m for m in sys.modules if 'mpmath' in m))\n"
    )
    out = _run(script)
    assert out.startswith("5604\n1/18\nh,k\n0,1\n1,5\n")
    assert "\nh,k,k1,k2,w1_re,w1_im,w2_re,w2_im\n" in out


def test_plain_exact_cli_imports_no_json_or_fractions(tmp_path):
    # plain `exact` output, with or without a cache hit, needs neither json
    # nor fractions (which pulls in decimal); only --format json loads json
    cache = tmp_path / "p.csv"
    script = (
        "import sys\n"
        "import partitions.cli\n"
        f"for argv in (['exact', '30'], ['--cache', {str(cache)!r}, 'exact', '30'],"
        f" ['--cache', {str(cache)!r}, 'exact', '20']):\n"
        "    assert partitions.cli.main(argv) == 0\n"
        "    loaded = [m for m in ('json', 'fractions', 'decimal', 'mpmath') if m in sys.modules]\n"
        "    assert not loaded, (argv, loaded)\n"
        "assert partitions.cli.main(['--format', 'json', 'exact', '30']) == 0\n"
    )
    out = _run(script)
    assert out == '5604\n5604\n627\n{"n": 30, "p": "5604"}\n'


def test_cli_loads_neither_dataclasses_nor_inspect():
    # result records are named tuples; a subprocess, since pytest itself imports inspect
    script = (
        "import sys\n"
        "import partitions.cli\n"
        "for argv in (['series', '100'], ['ak', '7', '5'], ['bessel', '2'], ['verify', 'eta', '--samples', '1'],"
        " ['table', '--list', '10'], ['dedekind', '1', '3'], ['ford', '5']):\n"
        "    assert partitions.cli.main(argv) == 0\n"
        "    loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "    assert not loaded, (argv, loaded)\n"
    )
    out = _run(script)
    assert '"rounded": "190569292"' in out and out.endswith("1,1,5,5,1/26,5/26,1/26,-5/26\n")


class _Index:
    """An integer that only ``operator.index`` reads."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def _extend_to(x, cache, path):
    cache.extend_to(x)
    return cache


# each integer-only entry point as a call with x in place of one integer
# argument, and the int that a valid x stands for there; ``cache`` starts
# empty and ``path`` holds p(0..10)
_INTEGER_ARGUMENTS = {
    "pentagonal": (lambda x, cache, path: pentagonal(x), 7),
    "extend_to": (_extend_to, 7),
    "p_exact": (lambda x, cache, path: p_exact(x, cache), 7),
    "partition_table_dp": (lambda x, cache, path: partition_table_dp(x), 7),
    "p_oracle_dp": (lambda x, cache, path: p_oracle_dp(x), 7),
    "cache_lookup": (lambda x, cache, path: cache_lookup(path, x), 5),
    "PartitionCache": (lambda x, cache, path: PartitionCache([1, x])[1], 2),
    "PartitionCache[n]": (lambda x, cache, path: PartitionCache([1, 1, 2, 3])[x], 3),
    "default_precision": (lambda x, cache, path: default_precision(x), 100),
    "truncation_bound[n]": (lambda x, cache, path: truncation_bound(x, 20), 100),
    "truncation_bound[N]": (lambda x, cache, path: truncation_bound(100, x), 20),
    "terms_needed": (lambda x, cache, path: terms_needed(x), 100),
    "p_series": (lambda x, cache, path: p_series(x), 100),
    "r_k": (lambda x, cache, path: r_k(x, 3), 100),
    "r_k[k]": (lambda x, cache, path: r_k(100, x), 3),
    "a_k[k]": (lambda x, cache, path: a_k(x, 5), 7),
    "a_k[n]": (lambda x, cache, path: a_k(7, x), 5),
    "selberg_roots[k]": (lambda x, cache, path: selberg_roots(x, 5), 7),
    "selberg_roots[n]": (lambda x, cache, path: selberg_roots(7, x), 5),
    "dedekind_sum[h]": (lambda x, cache, path: dedekind_sum(x, 7), 5),
    "dedekind_sum[k]": (lambda x, cache, path: dedekind_sum(5, x), 7),
    "reciprocity_defect[h]": (lambda x, cache, path: reciprocity_defect(x, 7), 5),
    "reciprocity_defect[k]": (lambda x, cache, path: reciprocity_defect(5, x), 7),
    "conjugate_inverse[h]": (lambda x, cache, path: conjugate_inverse(x, 7), 5),
    "conjugate_inverse[k]": (lambda x, cache, path: conjugate_inverse(5, x), 7),
    "farey_sequence": (lambda x, cache, path: farey_sequence(x), 5),
    "w_chord": (lambda x, cache, path: w_chord(0, Fraction(1, 2), 1, x), 5),
    "contour_triples": (lambda x, cache, path: contour_triples(x), 5),
    "rademacher_path": (lambda x, cache, path: rademacher_path(x), 5),
    # both matrices have determinant 1 with the entry x = 1
    "verify_eta[a]": (lambda x, cache, path: verify_eta((x, 1, 1, 2), mpc(0, 1)), 1),
    "verify_eta[b]": (lambda x, cache, path: verify_eta((1, x, 1, 2), mpc(0, 1)), 1),
    "verify_eta[c]": (lambda x, cache, path: verify_eta((1, 1, x, 2), mpc(0, 1)), 1),
    "verify_eta[d]": (lambda x, cache, path: verify_eta((2, 1, 1, x), mpc(0, 1)), 1),
    "verify_f_transform[h]": (lambda x, cache, path: verify_f_transform(x, 7, 1), 3),
    "verify_f_transform[k]": (lambda x, cache, path: verify_f_transform(1, x, 1), 7),
    "error_row[n]": (lambda x, cache, path: error_row(x, 42), 10),
    "error_row[p_n]": (lambda x, cache, path: error_row(10, x), 42),
}


@pytest.mark.parametrize("name", _INTEGER_ARGUMENTS)
def test_integer_arguments_are_read_by_operator_index(name, tmp_path):
    # a float or Fraction, integral or not, and a str are refused before any
    # work; an object with __index__ and a bool count as the ints they stand for
    call, value = _INTEGER_ARGUMENTS[name]
    path = tmp_path / "p.csv"
    cache_save(PartitionCache(partition_table_dp(10)), path)
    text = path.read_text()
    cache = PartitionCache()
    for bad in (2.0, 2.5, 7.5, Fraction(5, 2), "3"):
        with pytest.raises(TypeError):
            call(bad, cache, path)
        assert cache.max_n == 0 and path.read_text() == text, bad
    for x, same in ((_Index(value), value), (True, 1)):
        got, want = call(x, PartitionCache(), path), call(same, PartitionCache(), path)
        assert got == want and repr(got) == repr(want), (x, got, want)


_REAL_N = "n must be a finite real number >= 1"

# each entry point that takes a real or complex number, as a call with x in
# place of that argument; the ValueError it raises for a NaN or an infinity;
# a Fraction that is not dyadic, so that rounding it down and to nearest
# differ; and a decimal string that a float holds exactly.  eta and
# verify_eta refuse every real tau, so their rows compare the refusals
_NUMBER_ARGUMENTS = {
    "alpha": (alpha, _REAL_N, Fraction(4, 3), "2.5"),
    "leading_term": (leading_term, _REAL_N, Fraction(4, 3), "2.5"),
    "tail_ratio_bound": (tail_ratio_bound, _REAL_N, Fraction(4, 3), "2.5"),
    "bessel_i_series[nu]": (lambda x, ctx: bessel_i_series(x, 2, ctx), "nu must be finite and greater than -1",
                            Fraction(4, 3), "2.5"),
    "bessel_i_series[x]": (lambda x, ctx: bessel_i_series(Fraction(3, 2), x, ctx), "x must lie in [0, 100000]",
                           Fraction(4, 3), "2.5"),
    "bessel_i_3_2_closed": (bessel_i_3_2_closed, "closed form requires finite x >= 2^-4096", Fraction(4, 3), "2.5"),
    "eta": (eta, "tau must be finite", Fraction(4, 3), "2.5"),
    "verify_eta": (lambda x, ctx: verify_eta((1, 1, 1, 2), x, ctx).rhs, "tau must lie in the upper half-plane",
                   Fraction(4, 3), "2.5"),
    "generating_function": (generating_function, "x must be finite", Fraction(1, 3), "0.25"),
    "verify_f_transform": (lambda x, ctx: verify_f_transform(1, 3, x, ctx), "z must be finite",
                           Fraction(4, 3), "2.5"),
}


def _outcome(call, x, ctx):
    """The bits of ``call(x, ctx)``, or the message of the ValueError it raises."""
    try:
        value = call(x, ctx)
    except ValueError as exc:
        return str(exc)
    return value._mpc_ if isinstance(value, mpc) else value._mpf_


@pytest.mark.parametrize("name", _NUMBER_ARGUMENTS)
def test_number_arguments_refuse_a_decimal_nan_or_infinity(name):
    # with the function's own ValueError, as for a float nan or inf
    call, message, _, _ = _NUMBER_ARGUMENTS[name]
    for bad in (Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad, PrecisionContext())


@pytest.mark.parametrize("name", _NUMBER_ARGUMENTS)
@pytest.mark.parametrize("bits", [64, 256])
def test_number_arguments_read_a_fraction_to_nearest(name, bits):
    # a Fraction is its p/q rounded once, to nearest, at the working width
    call, _, fraction, _ = _NUMBER_ARGUMENTS[name]
    ctx = PrecisionContext(bits)
    with ctx.workprec():
        nearest = mpf(fraction.numerator) / fraction.denominator
    assert _outcome(call, fraction, ctx) == _outcome(call, nearest, ctx)


@pytest.mark.parametrize("name", _NUMBER_ARGUMENTS)
def test_number_arguments_take_a_decimal_and_a_string_like_a_float(name):
    call, _, _, decimal = _NUMBER_ARGUMENTS[name]
    for bits in (64, 256):
        ctx = PrecisionContext(bits)
        want = _outcome(call, float(decimal), ctx)
        assert _outcome(call, Decimal(decimal), ctx) == want == _outcome(call, decimal, ctx), bits


# each entry point that takes only a real number, and the name of that argument
_REAL_ARGUMENTS = {
    "alpha": (alpha, "n"),
    "leading_term": (leading_term, "n"),
    "tail_ratio_bound": (tail_ratio_bound, "n"),
    "bessel_i_series[nu]": (lambda x, ctx: bessel_i_series(x, 2, ctx), "nu"),
    "bessel_i_series[x]": (lambda x, ctx: bessel_i_series(Fraction(3, 2), x, ctx), "x"),
    "bessel_i_3_2_closed": (bessel_i_3_2_closed, "x"),
}


@pytest.mark.parametrize("name", _REAL_ARGUMENTS)
@pytest.mark.parametrize("kind", [complex, mpc])
def test_real_arguments_refuse_a_complex_by_name(name, kind):
    # a zero imaginary part too: the type is refused, not the value
    call, argument = _REAL_ARGUMENTS[name]
    for z in (kind(2, 1), kind(2, 0)):
        with pytest.raises(TypeError, match=f"^{argument} must be real$"):
            call(z, PrecisionContext())


# t of exp_i_pi_rational, read exactly by Fraction(t), and the Fraction it stands for
_EXACT_RATIONALS = {
    "int": (3, Fraction(3)),
    "float": (0.5, Fraction(1, 2)),
    "Decimal": (Decimal("0.1"), Fraction(1, 10)),
    "str": ("1/3", Fraction(1, 3)),
}


@pytest.mark.parametrize("kind", _EXACT_RATIONALS)
def test_exp_i_pi_rational_reads_t_exactly(kind):
    t, exact = _EXACT_RATIONALS[kind]
    assert exp_i_pi_rational(t)._mpc_ == exp_i_pi_rational(exact)._mpc_


@pytest.mark.parametrize("t", [mpf(0.5), None], ids=["mpf", "None"])
def test_exp_i_pi_rational_refuses_an_inexact_t(t):
    with pytest.raises(TypeError):
        exp_i_pi_rational(t)
