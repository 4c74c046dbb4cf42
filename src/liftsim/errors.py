"""Shared exception types."""


class DomainError(ValueError):
    """An argument is outside the operation's domain (bad range, shape, or kind)."""


class ResourceError(RuntimeError):
    """An exact computation would exceed the configured enumeration budget.

    All oracles here are exponential by design; they refuse loudly instead of
    sampling silently.
    """

    def __init__(self, what, required, budget):
        self.what = what
        self.required = required
        self.budget = budget
        super().__init__(
            f"{what}: needs {required} but budget is {budget}; "
            f"raise the budget to at least {required} to run this exactly"
        )

    def __reduce__(self):
        # pickled across a process pool, so a worker's refusal reaches the caller
        return type(self), (self.what, self.required, self.budget)
