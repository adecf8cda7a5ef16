"""One cache policy. `make_ring` keeps one ring per (spec, order guard,
work guard), and every value derived from a ring lives in that ring's
memo: it is built once per ring and key, stored read-only when it is an
array or a tuple of arrays, and counted in the ring's `memo_bytes`. That
covers the value table of each polynomial, which every layer reads through
`RingPoly.values`, the GF(p^e) log tables and the sample points of
`vdc_check`. At each `make_ring` call the least recently used rings are
dropped, whole, until the memo bytes of the rings kept fit under
`CACHE_BYTES`. Nothing in a memo refers back to the ring, so reference
counting frees a dropped ring as soon as its last user lets it go. No
other process-wide table holds a ring or a value derived from one.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from poly_oracle import from_int_coeffs

from ringlab import rings
from ringlab.characters import character_group
from ringlab.harmonics import character_bound_check, random_functions, te_estimate, vdc_check
from ringlab.paley import build_paley, spectrum
from ringlab.polynomials import RingPoly
from ringlab.rings import Ring, make_ring
from ringlab.subgroups import full_subgroup, value_subgroup

SPECS = ("Z/12", "GF(8)", "GR(2,2,2)", "PQ(q=2;g=0,0,1)", "prod(Z/4;GF(4))")


def _use_every_layer(ring):
    P = from_int_coeffs(ring, (0, 0, 1))
    character_bound_check(ring, P)
    te_estimate(ring, P, random_functions(ring, 2, 1), seed=1)
    vdc_check(ring, full_subgroup(ring), random_functions(ring, 2, 1), 2)
    spectrum(build_paley(ring, 3))
    ring.add_table(range(ring.order))


def _freed(ref) -> bool:
    """Whether the object of ref is gone by reference counting alone."""
    gc.disable()
    try:
        return ref() is None
    finally:
        gc.enable()


def _held(spec: str, nbytes: int) -> Ring:
    """The ring of spec with nbytes of one memoised array."""
    ring = make_ring(spec)
    ring.memo(("held", nbytes), lambda: np.zeros(nbytes, dtype=np.uint8))
    return ring


def test_one_ring_per_spec_and_guards(monkeypatch):
    """Equal specs, blanks around them aside, under equal guards give one
    ring; a changed order or work guard gives another, and the first comes
    back when the guards do."""
    ring = make_ring("GF(9)")
    assert make_ring(" GF(9) ") is ring
    for name in ("RINGLAB_ORDER_GUARD", "RINGLAB_WORK_GUARD"):
        monkeypatch.setenv(name, str(1 << 22))
        other = make_ring("GF(9)")
        assert other is not ring and other == ring and make_ring("GF(9)") is other
        monkeypatch.delenv(name)
        assert make_ring("GF(9)") is ring
    assert make_ring("PQ(q=9;g=1,0,1)").base is ring
    assert make_ring("prod(GF(9);Z/3)").factors[0] is ring


def test_equal_spellings_give_one_ring(monkeypatch):
    """Spec texts that print one spec are one ring, kept once in the table
    and counted once against the cap: GF(16), GF(016) and GF(16) with its
    canonical modulus given, also as a factor or a PQ base. Two spellings
    of a ring with 100 memo bytes stay under a cap of 150."""
    monkeypatch.setattr(rings, "CACHE_BYTES", 150)
    ring = _held("GF(16)", 100)
    for text in ("GF(016)", " GF(16;h=1,0,0,1,1) ", "GF(16)"):
        assert make_ring(text) is ring
    assert make_ring("prod(GF(016);Z/03)").factors[0] is ring
    assert make_ring("prod(GF(16);Z/3)") is make_ring("prod(GF(016);Z/03)")
    assert make_ring("PQ(q=016;g=1,0,1)").base is ring
    assert make_ring("GF(16;h=1,1,0,0,1)") is not ring
    assert [spec for spec, *_ in rings._RINGS].count("GF(16)") == 1
    assert make_ring("GF(16)") is ring


def test_least_recently_used_rings_go_past_the_cap(monkeypatch):
    """Three rings of 100 memo bytes each under a cap of 250: asking for
    the first again makes the second the least recently used, so it is
    the one dropped, and the bytes kept fit under the cap."""
    monkeypatch.setattr(rings, "CACHE_BYTES", 250)
    first, second, third = (_held(spec, 100) for spec in ("Z/5", "Z/6", "Z/7"))
    assert make_ring("Z/5") is first
    assert list(rings._RINGS.values()) == [third, first]
    assert sum(r.memo_bytes for r in rings._RINGS.values()) <= 250
    assert make_ring("Z/6") is not second and make_ring("Z/7") is third


@pytest.mark.parametrize("spec", SPECS)
def test_ring_dies_with_its_derived_values(spec, monkeypatch):
    """A ring dropped from the table is freed with its whole memo by
    reference counting, once its last user lets it go, after every layer
    has memoised values on it."""
    ring = make_ring(spec)
    _use_every_layer(ring)
    assert ring.memo_bytes > 0
    ref = weakref.ref(ring)
    monkeypatch.setattr(rings, "CACHE_BYTES", 0)
    make_ring("Z/2")
    assert all(r is not ring for r in rings._RINGS.values())
    del ring
    assert _freed(ref)


def test_a_ring_over_the_cap_alone_comes_back_fresh(monkeypatch):
    monkeypatch.setattr(rings, "CACHE_BYTES", 50)
    ring = _held("GF(4)", 100)
    again = make_ring("GF(4)")
    assert again is not ring and again.memo_bytes == 0
    assert make_ring("GF(4)") is again


def test_memo_bytes_count_arrays_of_tuples_and_reports():
    """memo_bytes adds the nbytes of an array value, of the arrays of a
    tuple value and of the arrays of a report dataclass, once per key."""
    ring = make_ring("Z/16")
    ring.memo("a", lambda: np.zeros(3))
    ring.memo("b", lambda: (np.zeros(2, dtype=np.int32), "text", np.zeros(5, dtype=np.int8)))
    ring.memo("a", lambda: np.zeros(99))
    assert ring.memo_bytes == 24 + 8 + 5
    graph = build_paley(ring, 3)
    before = ring.memo_bytes + character_group(ring).unit_table.nbytes
    report = spectrum(graph)
    assert ring.memo_bytes == before + report.eigenvalues.nbytes
    assert not report.eigenvalues.flags.writeable


def test_memoised_eigenvalues_own_their_data():
    """The Paley spectrum keeps its real eigenvalues as an array of their
    own, not as a view that holds the complex transform alive, so
    memo_bytes counts every byte the memo keeps."""
    ring = make_ring("GF(4096)")
    graph = build_paley(ring, 3)
    before = ring.memo_bytes + character_group(ring).unit_table.nbytes
    report = spectrum(graph)
    assert report.eigenvalues.base is None
    assert ring.memo_bytes == before + report.eigenvalues.nbytes == before + 4096 * 8


@pytest.mark.parametrize("spec", ("GR(2,2,2)", "GR(3,2,2;f=2,2,1)", "PQ(q=2;g=0,0,1)", "PQ(q=4;g=1,0,1)"))
def test_reduction_data_is_shared_by_rings_of_one_spec(spec):
    """GR and PQ over GF(p) that are not fields keep one read-only
    reduction matrix in their memo, counted in `memo_bytes` and built at
    their first product, with the product table that the matrix builds at
    orders up to `TABLE_ORDER`; PQ over GF(p^e) builds no matrix and reads
    the log tables in the memo of its base field, the interned GF(q)."""
    ring = make_ring(spec)
    assert make_ring(spec) is ring and ring.memo_bytes == 0
    assert int(ring.mul_vec(2, 3)) == ring.mul(2, 3)
    if spec == "PQ(q=4;g=1,0,1)":
        assert "reduction_rows" not in ring._memo and ring.base is make_ring("GF(4)")
        tables = ring.base._memo["log_tables"]
        assert ring.base.mul(2, 3) == int(ring.mul_vec(2, 3))
        assert ring.base._memo["log_tables"] is tables and not tables[0].flags.writeable
    else:
        rows, table = ring._memo["reduction_rows"], ring._memo["table", "mul"]
        assert not rows.flags.writeable and not table.flags.writeable
        assert table.shape == (ring.order, ring.order)
        assert ring.memo_bytes == rows.nbytes + table.nbytes
        ring.mul_vec(np.arange(ring.order), 3)
        assert make_ring(spec)._memo["reduction_rows"] is rows


@pytest.mark.parametrize("spec", SPECS)
def test_character_group_belongs_to_its_own_ring(spec, monkeypatch):
    """A character group is a new view on each call, on the ring it was
    asked for; its unit table lives in that ring's memo, and a ring of the
    same spec under another guard has its own."""
    r1 = make_ring(spec)
    monkeypatch.setenv("RINGLAB_ORDER_GUARD", str(1 << 22))
    r2 = make_ring(spec)
    assert r1 == r2 and r1 is not r2
    assert character_group(r1).ring is r1
    assert character_group(r2).ring is r2
    assert character_group(r2) is not character_group(r1)
    assert character_group(r1).unit_table is character_group(r1).unit_table
    assert character_group(r2).unit_table is not character_group(r1).unit_table


@pytest.mark.parametrize("spec", SPECS)
def test_value_subgroup_is_built_once_per_ring(spec):
    ring = make_ring(spec)
    P = from_int_coeffs(ring, (1, 0, 1))
    H = value_subgroup(ring, P)
    again = value_subgroup(make_ring(spec), from_int_coeffs(ring, (1, 0, 1)))
    assert again.elements is H.elements and again.generators is H.generators
    assert not H.elements.flags.writeable and not H.generators.flags.writeable
    assert value_subgroup(ring, P, subtract_constant=False).elements is not H.elements


def test_memo_builds_once_and_freezes_arrays():
    ring = make_ring("Z/10")
    calls = []

    def build():
        calls.append(1)
        return np.arange(4)

    first = ring.memo(("test", 1), build)
    assert ring.memo(("test", 1), build) is first
    assert len(calls) == 1
    with pytest.raises(ValueError):
        first[0] = 7
    assert ring.memo(("test", 2), build) is not first
    assert len(calls) == 2


def test_modulus_factors_are_kept_on_the_ring():
    ring = make_ring("PQ(q=2;g=0,0,1,1)")
    factors = ring.modulus_factors()
    assert factors == ((((0, 1), 2), ((1, 1), 1)))
    assert ring.modulus_factors() is factors


@pytest.mark.parametrize("spec", SPECS)
def test_value_table_is_built_once_per_ring_and_polynomial(spec, monkeypatch):
    """Every layer that needs P(R) reads one table: a whole bound check
    builds the spec's own table once, evaluates no (ring, coefficients)
    pair twice, also across calls of make_ring, the table is read-only,
    and another polynomial, or the ring of the same spec under another
    guard, gets its own. The exact degree of Z/12 and prod(Z/4;GF(4)) runs
    factor by factor, so those two also evaluate P's projection once on
    their factor Z/4."""
    evaluated = []
    eval_poly_vec = Ring.eval_poly_vec
    monkeypatch.setattr(
        Ring, "eval_poly_vec",
        lambda ring, coeffs, xs: evaluated.append((ring.spec_string(), coeffs))
        or eval_poly_vec(ring, coeffs, xs),
    )
    ring = make_ring(spec)
    P = from_int_coeffs(ring, (1, 0, 1))
    character_bound_check(ring, P)
    value_subgroup(ring, P, subtract_constant=False)
    values = P.values()
    assert [coeffs for s, coeffs in evaluated if s == spec] == [P.coeffs]
    assert len(set(evaluated)) == len(evaluated)
    factors = {"Z/4"} if spec in ("Z/12", "prod(Z/4;GF(4))") else set()
    assert {s for s, _ in evaluated} == {spec} | factors
    assert RingPoly(make_ring(spec), P.coeffs).values() is values
    with pytest.raises(ValueError):
        values[0] = 1
    built = len(evaluated)
    Q = from_int_coeffs(ring, (0, 0, 0, 1))
    assert Q.values() is not values and len(evaluated) == built + 1
    monkeypatch.setenv("RINGLAB_WORK_GUARD", str(1 << 25))
    other = make_ring(spec)
    again = RingPoly(other, P.coeffs).values()
    assert again is not values and (again == values).all() and len(evaluated) == built + 2


def test_memoised_value_subgroup_is_two_small_arrays():
    """The memo keeps the value subgroup of x^3 on Z/65536, all of the ring,
    as int64 arrays: its 512 KB of elements and a short basis. As a tuple
    of Python ints it kept 2.49 MB."""
    ring = make_ring("Z/65536")
    P = from_int_coeffs(ring, (0, 0, 0, 1))
    P.values()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert value_subgroup(ring, P).is_full
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20
