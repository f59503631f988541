import itertools

import numpy as np
import pytest

from polytoep.lattice import Box, interior
from polytoep.operators import _exponents

from oracles import enumerate_basis, position


def test_enumeration_row_major():
    assert enumerate_basis(Box((1, 1))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert enumerate_basis(Box((0, 0, 0))) == [(0, 0, 0)]
    assert enumerate_basis(Box((2,))) == [(0,), (1,), (2,)]


def test_enumeration_count():
    for caps in [(3,), (2, 4), (1, 2, 3)]:
        box = Box(caps)
        want = 1
        for c in caps:
            want *= c + 1
        assert len(enumerate_basis(box)) == want == box.dim


def test_position_examples():
    assert position(Box((1, 1)), (1, 0)) == 2
    assert position(Box((2,)), (2,)) == 2
    with pytest.raises(ValueError):
        position(Box((1, 1)), (2, 0))
    with pytest.raises(ValueError):
        position(Box((1, 1)), (0, 0, 0))


def test_position_inverts_enumeration():
    for caps in [(4,), (2, 3), (1, 1, 2)]:
        box = Box(caps)
        for j, k in enumerate(enumerate_basis(box)):
            assert position(box, k) == j


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("caps", [(0,), (4,), (0, 0), (2, 0), (0, 3), (2, 3), (0, 0, 0), (1, 0, 2), (2, 1, 2)])
def test_exponents_list_the_monomials_row_major(caps, p):
    # the program's one exponent grid against the oracles' own enumeration:
    # row r of the block-major layout holds monomial r // p
    box = Box(caps)
    want = np.repeat(np.array(enumerate_basis(box), dtype=np.int64).reshape(box.dim, box.n), p, axis=0)
    assert np.array_equal(_exponents(box, p).T, want)


def test_interior_examples():
    assert interior(Box((5, 5)), 2, (0, 1)).caps == (3, 3)
    assert interior(Box((5, 3)), 3, (1,)).caps == (5, 0)
    with pytest.raises(ValueError):
        interior(Box((2, 2)), 3, (0,))


@pytest.mark.parametrize("directions", [(0, 0), (1, 0, 1), (2,), (-1,)])
def test_interior_refuses_repeated_or_out_of_range_directions(directions):
    with pytest.raises(ValueError, match="out of range or repeated"):
        interior(Box((5, 5)), 1, directions)


def test_interior_composes():
    box = Box((6, 5))
    for m1, m2 in itertools.product(range(3), repeat=2):
        a = interior(interior(box, m1), m2)
        b = interior(box, m1 + m2)
        assert a == b


def test_interior_defaults_to_all_directions():
    assert interior(Box((4, 7, 5)), 2).caps == (2, 5, 3)


def test_invalid_boxes():
    with pytest.raises(ValueError):
        Box(())
    with pytest.raises(ValueError):
        Box((-1, 2))
