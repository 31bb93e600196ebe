import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from annulab.bergman import polar_symbol_grid
from annulab.errors import AliasingError
from annulab.geometry import AnnulusGeometry
from annulab.randgen import Lcg, random_boundary_symbol, random_polar_symbol
from annulab.symbols import (
    MAX_INDEX,
    ExactCircle,
    ExactSymbol,
    PolarSymbol,
    PolyProfile,
    _analyze,
    _convolve,
    _flip,
    _read,
    _synthesize,
    conjugate_symbol,
    fourier_pair,
    laurent_symbol,
    multiply_symbols,
    pullback_symbols,
    read_symbol,
    sample_symbol,
    symbol_from_json,
    write_symbol,
)

R = 0.5


def z_symbol():
    return laurent_symbol({1: 1.0}, R)


def test_fourier_pair_of_z():
    # f(R e^it) = R e^it carries a factor R in its inner-circle coefficient
    assert fourier_pair(z_symbol(), 1) == (1.0, R)
    assert fourier_pair(z_symbol(), 0) == (0.0, 0.0)


def test_fourier_pair_outer_indicator():
    sym = ExactSymbol({0: 1.0}, {})
    assert fourier_pair(sym, 0) == (1.0, 0.0)


def samples(sym, geo):
    """Both circles' grid samples, stacked on the leading axis."""
    data = sample_symbol(sym, geo)
    return np.stack((data.on_C, data.on_C0))


def test_sampled_roundtrip(small_geo):
    rng = Lcg(7)
    sym = random_boundary_symbol(rng, 10)
    grid = samples(sym, small_geo)
    for n in range(-10, 11):
        a = fourier_pair(sym, n)
        b = _analyze(grid, n)
        assert abs(a[0] - b[0]) <= 1e-12
        assert abs(a[1] - b[1]) <= 1e-12


def test_sampled_aliasing_guard(small_geo):
    with pytest.raises(AliasingError):
        _analyze(samples(z_symbol(), small_geo), small_geo.m_circle // 2)


def _analyze_reference(values, n):
    """The form before the gather came first: the whole spectrum divided
    by ``m``, then a gather."""
    m = values.shape[-1]
    return np.take(np.fft.fft(values, axis=-1) / m, np.asarray(n) % m, axis=-1)


def _same_bits(a, b):
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).dtype == np.asarray(b).dtype
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


def test_analyze_has_the_bits_of_the_whole_spectrum_divided_first():
    """Dividing only the gathered bins by ``m`` is the same elementwise
    complex division, so it gives the same bits: on random rows at every
    ``m`` from 8 to 16384, on rows with -0.0, infinite and NaN samples,
    for a scalar and an array ``n`` and the Bergman oracle's 2-D
    ``np.subtract.outer`` layout."""
    rng = np.random.default_rng(47)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -5e-324])
    for m in 2 ** np.arange(3, 15):
        half = m // 2
        values = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        odd = values.copy()
        at = np.arange(3)[:, None], rng.integers(0, m, (3, 4))
        odd.real[at], odd.imag[at] = rng.choice(special, (2, 3, 4))
        odd[1] = complex(-0.0, -0.0)
        odd[2, : min(m, 6)] = complex(-0.0, 0.0)
        ns = np.arange(1 - half, half)
        window = ns[:: max(1, half // 8)] // 2
        outer = np.subtract.outer(window, window)
        with np.errstate(all="ignore"):
            for rows in (values, odd, values[0], odd[2]):
                for n in (0, 1 - half, half - 1, np.int64(3 % half), ns, ns[::-1], outer):
                    assert _same_bits(_analyze(rows, n), _analyze_reference(rows, n))


def test_analyze_aliasing_message_is_unchanged():
    with pytest.raises(AliasingError, match=r"^Fourier index -8 is aliased on a grid of 16 nodes$"):
        _analyze(np.ones(16), np.array([3, -8, 7]))
    with pytest.raises(AliasingError, match=r"^Fourier index 4 is aliased on a grid of 8 nodes$"):
        _analyze(np.ones((2, 8)), 4)


def index_readers(geo):
    """Each way of reading coefficients at an integer or an integer array:
    from the tables, and from grid samples through the one FFT route."""
    sym = random_boundary_symbol(Lcg(9), 6)
    grid = samples(sym, geo)
    return {
        "exact-pair": lambda n: fourier_pair(sym, n),
        "sampled-pair": lambda n: tuple(_analyze(grid, n)),
        "exact-circle": pullback_symbols(sym)[1].hat,
        "sampled-circle": lambda n: _analyze(_flip(grid[1]), n),
    }


@pytest.mark.parametrize(
    "reader", ["exact-pair", "sampled-pair", "exact-circle", "sampled-circle"]
)
def test_scalar_and_array_reads_agree_bit_for_bit(small_geo, reader):
    read = index_readers(small_geo)[reader]
    half = small_geo.m_circle // 2
    ns = np.arange(-half + 1, half).reshape(3, -1)
    whole = np.asarray(read(ns))
    for idx, n in np.ndenumerate(ns):
        one = np.asarray(read(int(n)), dtype=complex)
        assert one.tobytes() == whole[(...,) + idx].astype(complex).tobytes()


@pytest.mark.parametrize("reader", ["sampled-pair", "sampled-circle"])
@pytest.mark.parametrize("bad", [1, -1])
def test_array_read_refuses_any_aliased_index(small_geo, reader, bad):
    read = index_readers(small_geo)[reader]
    ns = np.arange(-5, 6)
    ns[3] = bad * (small_geo.m_circle // 2)
    with pytest.raises(AliasingError, match=str(ns[3])):
        read(ns)


def test_exact_helpers():
    sym = ExactSymbol({3: 1.0, -2: 0.5}, {1: 2.0})
    assert sym.top_degree() == 3
    assert sym.bandwidth() == 3
    assert sym.neg_reach() == 2
    assert not sym.is_zero()
    assert ExactSymbol({0: 0.0}, {}).is_zero()


def test_pullback_constant():
    pc, p0 = pullback_symbols(ExactSymbol({0: 1.0}, {0: 1.0}))
    assert pc.hat(0) == 1.0 and p0.hat(0) == 1.0
    assert pc.hat(1) == 0.0 and p0.hat(1) == 0.0


def test_pullback_flips_inner_index():
    """Composing with the angle-reversing map sends degree n to -n."""
    pc, p0 = pullback_symbols(z_symbol())
    assert pc.hat(1) == 1.0
    assert p0.hat(-1) == R
    assert p0.hat(1) == 0.0


def test_pullback_of_z_plus_conjugate():
    # z + conj(z) restricted to the inner circle is R (e^{it} + e^{-it})
    sym = ExactSymbol({1: 1.0, -1: 1.0}, {1: R, -1: R})
    pc, p0 = pullback_symbols(sym)
    assert pc.hat(1) == 1.0 and pc.hat(-1) == 1.0
    assert p0.hat(1) == R and p0.hat(-1) == R


def test_pullback_consistency_exact_vs_sampled(small_geo):
    # the table pullback and the angle flip of the grid samples agree
    rng = Lcg(3)
    sym = random_boundary_symbol(rng, 6)
    pc_e, p0_e = pullback_symbols(sym)
    grid = samples(sym, small_geo)
    for n in range(-6, 7):
        assert abs(pc_e.hat(n) - _analyze(grid[0], n)) <= 1e-12
        assert abs(p0_e.hat(n) - _analyze(_flip(grid[1]), n)) <= 1e-12


def test_multiply_exact_matches_sampled(small_geo):
    rng = Lcg(5)
    a = random_boundary_symbol(rng, 3)
    b = random_boundary_symbol(rng, 4)
    prod = multiply_symbols(a, b)
    da, db = sample_symbol(a, small_geo), sample_symbol(b, small_geo)
    grid = sample_symbol(prod, small_geo)
    assert np.max(np.abs(grid.on_C - da.on_C * db.on_C)) <= 1e-12
    assert np.max(np.abs(grid.on_C0 - da.on_C0 * db.on_C0)) <= 1e-12


def test_conjugate_symbol_reflects():
    sym = ExactSymbol({2: 1 + 1j}, {-1: 2j})
    conj = conjugate_symbol(sym)
    assert conj.coeffs_C[-2] == 1 - 1j
    assert conj.coeffs_C0[1] == -2j


def test_conjugate_symbol_on_circles():
    exact = conjugate_symbol(ExactCircle({3: 1 - 2j}))
    assert exact.coeffs == {-3: 1 + 2j}


def test_convolve_exact_circle_tables():
    a = ExactCircle({1: 2.0 + 0.0j})
    assert _convolve(a.coeffs, a.coeffs) == {2: 4.0 + 0.0j}


M2 = 2 * MAX_INDEX

#: per case: two tables and their product, on the edges: exact
#: cancellations (dropped), empty tables, keys at +-MAX_INDEX (their sums
#: are Python ints past int64) and (band, degree) keys, added elementwise
CONVOLVE_CASES = {
    "cancels": ({0: 1 + 0j, 1: 1 + 0j}, {0: 1 + 0j, -1: -1 + 0j}, {-1: -1 + 0j, 1: 1 + 0j}),
    "cancels-2d": ({(0, 1): 2j, (1, 0): 1 + 0j}, {(0, 0): 1 + 0j, (-1, 1): -2j},
                   {(-1, 2): 4 + 0j, (1, 0): 1 + 0j}),
    "empty-a": ({}, {0: 1j}, {}),
    "empty-b": ({0: 1j}, {}, {}),
    "bound": ({MAX_INDEX: 1j}, {MAX_INDEX: 1j, -MAX_INDEX: 2 + 0j}, {M2: -1 + 0j, 0: 2j}),
    "bound-2d": ({(MAX_INDEX, -MAX_INDEX): 1j}, {(MAX_INDEX, -MAX_INDEX): 1j},
                 {(M2, -M2): -1 + 0j}),
}


@pytest.mark.parametrize("a, b, product", CONVOLVE_CASES.values(), ids=CONVOLVE_CASES)
def test_convolve_edge_cases(a, b, product):
    assert _convolve(a, b) == product


polar_table = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    max_size=9,
)


@settings(max_examples=200, deadline=None)
@given(a=polar_table, b=polar_table)
def test_convolve_adds_band_degree_keys_as_their_int_encoding_does(a, b):
    """A (band, degree) key ``(k, d)`` read as the integer ``64 k + d``:
    the keys of a product stay apart under that encoding (``|d| <= 6``),
    so the tuple product is the integer one, key for key and bit for bit."""
    def encode(table):
        return {64 * k + d: c for (k, d), c in table.items()}

    def bits(table):  # repr keeps a signed zero apart from +0
        return [(n, repr(c)) for n, c in table.items()]

    assert bits(encode(_convolve(a, b))) == bits(_convolve(encode(a), encode(b)))


def test_polar_product_and_conjugate_match_their_grid_samples():
    """A polar product's bands convolve and its profiles multiply, and its
    conjugate reflects the bands and conjugates the profiles: on the
    Bergman oracle's (radial, angular) grid they sample to the product and
    the conjugate of the factors' samples, within 1e-12 relative."""
    geo = AnnulusGeometry(0.5, 64)
    rng = Lcg(17)
    f = random_polar_symbol(rng, -2, 3, 3)
    g = random_polar_symbol(rng, -1, 2, 2, monomial_top=True)
    F, G = polar_symbol_grid(f, geo), polar_symbol_grid(g, geo)
    FG = polar_symbol_grid(multiply_symbols(f, g), geo)
    assert np.max(np.abs(FG - F * G)) <= 1e-12 * np.max(np.abs(F * G))
    Fc = polar_symbol_grid(conjugate_symbol(f), geo)
    assert np.max(np.abs(Fc - np.conj(F))) <= 1e-12 * np.max(np.abs(F))
    assert conjugate_symbol(f).live_bands == sorted(-k for k in f.live_bands)
    assert conjugate_symbol(conjugate_symbol(f)) == f


@pytest.mark.parametrize("a, b", [
    (ExactSymbol({0: 1j}, {}), ExactCircle({0: 1j})),
    (ExactCircle({0: 1j}), PolarSymbol({0: PolyProfile({0: 1j})})),
    (PolarSymbol({0: PolyProfile({0: 1j})}), ExactSymbol({0: 1j}, {})),
], ids=["exact-circle", "circle-polar", "polar-exact"])
def test_multiplying_two_kinds_raises_type_error(a, b):
    with pytest.raises(TypeError, match="cannot multiply"):
        multiply_symbols(a, b)


def dict_read(table, n):
    """The per-index dictionary read that the array gather replaced."""
    n = np.asarray(n)
    flat = [table.get(k, 0.0) for k in n.ravel().tolist()]
    return np.array(flat, dtype=complex).reshape(n.shape)[()]


table_values = st.one_of(
    st.integers(-9, 9),
    st.floats(-1e6, 1e6),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(
    table=st.dictionaries(st.integers(-30, 30), table_values, max_size=12),
    n=st.one_of(
        st.integers(-45, 45),
        st.lists(st.integers(-45, 45), max_size=16),
        st.lists(st.integers(-45, 45), min_size=6, max_size=6).map(
            lambda v: np.reshape(v, (2, 3))
        ),
    ),
)
@example(table={}, n=3)
@example(table={}, n=[])
@example(table={4: 1j, -2: 3, 0: 0.5}, n=[[-2, 4], [5, -7]])
def test_array_read_matches_dict_read(table, n):
    """The stacked read of one table reads the dictionary's bits for scalar
    and array indices, in and off the table, whatever the insertion order."""
    got, want = _read([table], n)[0], dict_read(table, n)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def loop_synthesize(table, m):
    """Grid samples of one table by a per-coefficient scatter into a zero
    spectrum, then the inverse FFT: the reference for ``_synthesize``."""
    spectrum = np.zeros(m, dtype=complex)
    for n, c in table.items():
        spectrum[n % m] += c
    return np.fft.ifft(spectrum) * m


signed_parts = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))


@settings(max_examples=200, deadline=None)
@given(
    table=st.dictionaries(
        st.integers(-3, 3), st.builds(complex, signed_parts, signed_parts), max_size=7
    ),
    m=st.sampled_from([8, 16, 64]),
)
@example(table={0: complex(-0.0, 1.0)}, m=8)
@example(table={0: complex(-0.0, -0.0)}, m=8)
def test_synthesize_matches_the_coefficient_loop(table, m):
    """One table read at the FFT bins gives the loop's sample bits, also for
    tables whose parts are -0.0 (the FFT keeps the sign of a zero)."""
    assert _synthesize(table, m).tobytes() == loop_synthesize(table, m).tobytes()


def test_support_and_live_bands_are_computed_once():
    sym = ExactSymbol({3: 1.0, -2: 0.0, 0: 2j}, {-2: 0.5, 5: 0.0})
    first = sym.support
    assert first == [-2, 0, 3]
    assert sym.support is first
    pol = PolarSymbol(
        {2: PolyProfile({1: 1.0}), 0: PolyProfile({1: 0.0}), -1: PolyProfile({0: 3.0})}
    )
    first = pol.live_bands
    assert first == [-1, 2]
    assert pol.live_bands is first
    circle = ExactCircle({2: 1.0, -1: 0.0, -4: 3j})
    first = circle._live
    assert first == [-4, 2]
    assert circle._live is first
    assert (circle.bandwidth(), circle.top_degree(), circle.neg_reach()) == (4, 2, 4)
    assert circle._live is first


@pytest.mark.parametrize(
    "degrees",
    [[-7, -3, -1], [2, 5], [-6, 0, 4], [-2, 9], [0], []],
    ids=["all-negative", "all-positive", "mixed-low", "mixed-high", "zero", "empty"],
)
def test_bandwidth_reads_the_ends_of_the_live_degrees(degrees):
    """``bandwidth`` is the largest ``|n|`` over the live degrees, read off
    the two ends of the sorted list: it equals the scan over every degree,
    for each kind of symbol; a zero coefficient at -20 is not live."""
    table = {n: 1.0 + n * 1j for n in degrees} | {-20: 0.0}
    bands = {k: PolyProfile({1: c}) for k, c in table.items()}
    for sym in (ExactSymbol(table, {}), ExactSymbol({}, table), ExactCircle(table), PolarSymbol(bands)):
        scan = max((abs(n) for n in sym._live), default=0)
        assert sym._live == degrees
        assert type(sym.bandwidth()) is int and sym.bandwidth() == scan


def test_polar_symbol_bands():
    pol = PolarSymbol({2: PolyProfile({1: 1.0}), -1: PolyProfile({0: 3.0})})
    assert pol.live_bands == [-1, 2]
    assert pol.top_degree() == 2
    assert pol.bandwidth() == 2
    assert pol.neg_reach() == 1
    assert PolarSymbol({3: PolyProfile({0: 1.0})}).live_bands == [3]


def test_write_symbol_refuses_a_circle_symbol_before_opening_the_file(tmp_path):
    """A file holds a two-circle or a polar symbol; a one-circle table has
    no layout, and the refusal comes before the file exists."""
    path = tmp_path / "sym.json"
    with pytest.raises(ValueError, match="only exact boundary or polar symbols"):
        write_symbol(path, ExactCircle({0: 1.0}), 0.5)
    assert not path.exists()


def test_boundary_json_roundtrip(tmp_path):
    rng = Lcg(11)
    sym = random_boundary_symbol(rng, 5)
    path = tmp_path / "sym.json"
    write_symbol(path, sym, R)
    back, back_R = read_symbol(path)
    assert back_R == R
    assert back.coeffs_C == sym.coeffs_C
    assert back.coeffs_C0 == sym.coeffs_C0


def test_polar_json_roundtrip(tmp_path):
    pol = PolarSymbol(
        {0: PolyProfile({0: 1.0, 2: -0.25j}), 3: PolyProfile({1: 0.125})}
    )
    path = tmp_path / "polar.json"
    write_symbol(path, pol, R)
    back, back_R = read_symbol(path)
    assert back_R == R
    assert back.bands[0].coeffs == pol.bands[0].coeffs
    assert back.bands[3].coeffs == pol.bands[3].coeffs


def test_symbol_from_json_rejects_unknown():
    with pytest.raises(ValueError):
        symbol_from_json({"repr": "mystery"})


#: documents whose tables a dict would misread, and the refusal's message
MISREAD_INDICES = {
    "repeated-index": ({"repr": "exact", "R": R, "coeffs_C": [[1, 1, 0], [1, 2, 0]]},
                       "index 1 is repeated"),
    "fractional-index": ({"repr": "exact", "R": R, "coeffs_C": [[1.5, 3, 0]]},
                         "index 1.5 is not an integer"),
    "boolean-index": ({"repr": "exact", "R": R, "coeffs_C0": [[True, 1, 0]]},
                      "index True is not an integer"),
    "repeated-band": ({"repr": "polar", "R": R, "bands": [[2, [[0, 1, 0]]], [2, [[1, 1, 0]]]]},
                      "band key 2 is repeated"),
    "fractional-band": ({"repr": "polar", "R": R, "bands": [[0.5, [[0, 1, 0]]]]},
                        "band key 0.5 is not an integer"),
    "repeated-degree": ({"repr": "polar", "R": R, "bands": [[0, [[2, 1, 0], [2, 1, 0]]]]},
                        "index 2 is repeated"),
}


@pytest.mark.parametrize("doc, message", MISREAD_INDICES.values(), ids=MISREAD_INDICES)
def test_symbol_from_json_refuses_misread_indices(doc, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        symbol_from_json(doc)


coeff = st.complex_numbers(
    min_magnitude=0, max_magnitude=4, allow_nan=False, allow_infinity=False
)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.integers(-5, 5), coeff, max_size=4),
    st.dictionaries(st.integers(-5, 5), coeff, max_size=4),
)
def test_multiply_commutes(ca, cb):
    a = ExactSymbol(dict(ca), {})
    b = ExactSymbol(dict(cb), {})
    ab = multiply_symbols(a, b)
    ba = multiply_symbols(b, a)
    for n in range(-10, 11):
        assert abs(ab.coeffs_C.get(n, 0.0) - ba.coeffs_C.get(n, 0.0)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(-8, 8), coeff, max_size=6))
def test_conjugate_is_involution(table):
    sym = ExactSymbol(dict(table), {n + 1: c for n, c in table.items()})
    back = conjugate_symbol(conjugate_symbol(sym))
    assert back.coeffs_C == {n: np.conj(np.conj(c)) for n, c in sym.coeffs_C.items()}
    assert set(back.coeffs_C0) == set(sym.coeffs_C0)
