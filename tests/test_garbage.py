"""The library leaves no cyclic garbage, and keeps few tracked objects.

Every recursive walk is a plain module-level recursion that takes its
state as arguments, so a query makes no reference cycle: with the cyclic
collector switched off, reference counting alone frees all it made, and
``gc.collect()`` afterwards finds nothing.  And what an engine keeps per
class is few objects that the collector must track, so that its full
collections stay cheap as a sweep grows.
"""

import contextlib
import gc
import io
from importlib import resources

import pytest

from factorum.catenary import catenary
from factorum.cli import main
from factorum.distances import DistanceKind, rigid_distance_oracle
from factorum.divisibility import is_almost_prime_like, valuation_set
from factorum.factorizations import length_profile, rigid_factorizations
from factorum.presentation import ExplorationBudget, PresentationSemigroup
from factorum.presets import load_preset
from factorum.zerosum import (BlockMonoidHandle, FiniteAbelianGroup,
                              atoms_of_block_monoid, zero_sum_sequences)


def cyclic_garbage(fn) -> int:
    """Objects the cyclic collector finds after fn() ran with it off."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def pres_path(name):
    return str(resources.files("factorum").joinpath(f"presentations/{name}.pres"))


def test_presentation_walks_leave_no_cycles():
    def run():
        h = PresentationSemigroup(load_preset("aba_ba3bc"),
                                  ExplorationBudget(36, 200_000))
        els, complete = h.enumerate_elements(5)
        for el in els:
            facts = rigid_factorizations(h, el).factorizations
            length_profile(h, el)
            if len(facts) >= 2 and facts[0].length + facts[1].length <= 10:
                rigid_distance_oracle(h, facts[0], facts[1])
        for q in "abc":
            is_almost_prime_like(h, h.element_from_str(q), els, complete)

    assert cyclic_garbage(run) == 0


def test_a_swept_class_keeps_few_tracked_objects():
    # A closed class keeps its ball, the ball's member set and its one
    # Element; its factorization fact holds only words and ints, which the
    # collector stops tracking.
    gc.collect()
    before = len(gc.get_objects())
    h = PresentationSemigroup(load_preset("aba_ba3bc"),
                              ExplorationBudget(36, 200_000))
    els, complete = h.enumerate_elements(7)
    atoms = [h.element_from_str(q) for q in "abc"]
    for el in els:
        answers = ([is_almost_prime_like(h, q, [el]) for q in atoms],
                   valuation_set(h, atoms[0], el),
                   valuation_set(h, atoms[1], el), length_profile(h, el))
    del answers
    gc.collect()
    added = len(gc.get_objects()) - before
    assert complete and len(els) == 3272
    assert added / len(els) <= 5


def test_block_monoid_walks_leave_no_cycles():
    def run():
        group = FiniteAbelianGroup((2, 4))
        h = BlockMonoidHandle(group)
        for seq in zero_sum_sequences(group, None, 6):
            catenary(h, seq, DistanceKind.PERMUTABLE)
        atoms_of_block_monoid(FiniteAbelianGroup((3, 3)))

    assert cyclic_garbage(run) == 0


@pytest.mark.parametrize("argv", [
    ["omega", pres_path("ab_cd_cede_ba"), "--divisor", "a",
     "--max-length", "4"],
    ["check-wth", pres_path("abc_de")],
    ["tri", "--matrix", "4 2; 0 6", "factorize"],
    ["mat", "--matrix", "4 1; 2 5", "lengths"],
])
def test_cli_commands_leave_no_cycles(argv):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            main(["--format", "json"] + argv)

    run()   # the first call builds the parser, which is kept
    assert cyclic_garbage(run) == 0
