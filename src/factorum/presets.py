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


def anbn(n: int, max_word_length: int = 0,
         max_ball_size: int = 100_000) -> PresentationSemigroup:
    """<a, b | a^n b^n = b^n a^n>."""
    text = f"gens: a b\nrel: {'a ' * n}{'b ' * n}= {'b ' * n}{'a ' * n}\n"
    budget = ExplorationBudget(max(2 * n, max_word_length, 12), max_ball_size)
    return PresentationSemigroup(parse_presentation(text), budget)


def b_an_c(n: int, max_word_length: int = 0,
           max_ball_size: int = 100_000) -> PresentationSemigroup:
    """<a, b, c | b a^{n-1} = a^{n-1} c>."""
    if n < 2:
        raise ValueError("need n >= 2")
    text = f"gens: a b c\nrel: b {'a ' * (n - 1)}= {'a ' * (n - 1)}c\n"
    budget = ExplorationBudget(max(n, max_word_length, 12), max_ball_size)
    return PresentationSemigroup(parse_presentation(text), budget)


def ab_ban(n: int, max_word_length: int = 0,
           max_ball_size: int = 100_000) -> PresentationSemigroup:
    """<a, b | a b = b a^{n-1}>."""
    if n < 2:
        raise ValueError("need n >= 2")
    text = f"gens: a b\nrel: a b = b {'a ' * (n - 1)}\n"
    budget = ExplorationBudget(max(n, max_word_length, 12), max_ball_size)
    return PresentationSemigroup(parse_presentation(text), budget)
