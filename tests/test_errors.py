import inspect
import pkgutil

import normlab
from normlab import errors


def test_one_error_hierarchy():
    # errors.py defines the only exception types, each a ValueError
    types = {}
    for info in pkgutil.iter_modules(normlab.__path__):
        if info.name == "__main__":  # runs the command line when imported
            continue
        mod = __import__(f"normlab.{info.name}", fromlist=["_"])
        for obj in vars(mod).values():
            if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__.startswith("normlab"):
                types[obj.__qualname__] = obj.__module__
    assert types == dict.fromkeys(("DomainError", "BudgetError", "DataQualityError"), "normlab.errors")
    for exc in (errors.DomainError, errors.BudgetError, errors.DataQualityError):
        assert issubclass(exc, ValueError)
