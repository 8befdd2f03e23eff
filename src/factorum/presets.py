"""Built-in example presentations (the shipped .pres files), plus the
parametric families used throughout the regression suite."""

from __future__ import annotations

from importlib import resources

from .presentation import (ExplorationBudget, Presentation,
                           PresentationSemigroup, parse_presentation)


def load_preset(name: str) -> Presentation:
    """Load one of the shipped presentation files by stem name."""
    text = resources.files("factorum").joinpath(
        f"presentations/{name}.pres").read_text("utf-8")
    return parse_presentation(text)


def preset_names() -> list:
    out = []
    for entry in resources.files("factorum").joinpath("presentations").iterdir():
        if entry.name.endswith(".pres"):
            out.append(entry.name[:-len(".pres")])
    return sorted(out)


def engine(name: str, budget: ExplorationBudget | None = None
           ) -> PresentationSemigroup:
    return PresentationSemigroup(load_preset(name), budget)


def _family(generators: str, lhs: list, rhs: list, max_word_length: int,
            max_ball_size: int) -> PresentationSemigroup:
    """The engine of <generators | lhs = rhs>, its text parsed under the
    family's own budget: the word cap is the longest side,
    ``max_word_length`` or 12, whichever is largest."""
    budget = ExplorationBudget(max(len(lhs), len(rhs), max_word_length, 12),
                               max_ball_size)
    return PresentationSemigroup(parse_presentation(
        f"gens: {generators}\nrel: {' '.join(lhs)} = {' '.join(rhs)}\n"
        f"budget: max_word_length={budget.max_word_length} "
        f"max_ball_size={budget.max_ball_size}\n"))


def anbn(n: int, max_word_length: int = 0,
         max_ball_size: int = 100_000) -> PresentationSemigroup:
    """<a, b | a^n b^n = b^n a^n>."""
    return _family("a b", ["a"] * n + ["b"] * n, ["b"] * n + ["a"] * n,
                   max_word_length, max_ball_size)


def b_an_c(n: int, max_word_length: int = 0,
           max_ball_size: int = 100_000) -> PresentationSemigroup:
    """<a, b, c | b a^{n-1} = a^{n-1} c>."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _family("a b c", ["b"] + ["a"] * (n - 1), ["a"] * (n - 1) + ["c"],
                   max_word_length, max_ball_size)


def ab_ban(n: int, max_word_length: int = 0,
           max_ball_size: int = 100_000) -> PresentationSemigroup:
    """<a, b | a b = b a^{n-1}>."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _family("a b", ["a", "b"], ["b"] + ["a"] * (n - 1),
                   max_word_length, max_ball_size)
