"""Helpers shared by the test modules."""

import sys


def clear_caches() -> None:
    """Empty every ``functools`` cache of the ``aggclosure`` modules, so
    that the next call builds its result as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "aggclosure":
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()
