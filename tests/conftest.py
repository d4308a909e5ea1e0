"""Helpers shared by the test modules."""


def drain(steps):
    """Every item the generator ``steps`` yields, and the value it returns."""
    items = []
    try:
        while True:
            items.append(next(steps))
    except StopIteration as stop:
        return items, stop.value
