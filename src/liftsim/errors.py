"""Shared exception types, and the budget check for powers of two."""


class DomainError(ValueError):
    """An argument is outside the operation's domain (bad range, shape, or kind)."""


class ResourceError(RuntimeError):
    """An exact computation would exceed the configured enumeration budget.

    All oracles here are exponential by design; they refuse loudly instead of
    sampling silently.  `required` is an int, or power_of_two's text "2^k".
    """

    def __init__(self, what, required, budget):
        self.what = what
        self.required = required
        self.budget = budget
        super().__init__(f"{what}: needs {required} but budget is {budget}")

    def __reduce__(self):
        # pickled across a process pool, so a worker's refusal reaches the caller
        return type(self), (self.what, self.required, self.budget)


def power_of_two(e: int):
    """2^e as a count: the int while int-to-str prints it (4300 digits, up to
    2^14284), else the text "2^e", so that a huge power is never built."""
    return 1 << e if e < 14_285 else f"2^{e}"


def check_power_of_two(what: str, e: int, budget: int) -> None:
    """Refuse 2^e items over budget: 2^e > budget iff e >= budget.bit_length()."""
    if e >= budget.bit_length():
        raise ResourceError(what, power_of_two(e), budget)
