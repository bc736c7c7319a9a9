"""Suite-wide pytest options.

``--test-order=reverse`` runs the collected tests last to first, and
``--test-order=shuffle:SEED`` in one seeded random order: tier-1 must
pass in any order, not only in the one pytest collects.
"""

import random

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--test-order",
        default="collected",
        help="collected (default), reverse, or shuffle:SEED",
    )


def pytest_collection_modifyitems(config, items):
    order = config.getoption("--test-order")
    if order == "reverse":
        items.reverse()
    elif order.startswith("shuffle:"):
        random.Random(int(order.removeprefix("shuffle:"))).shuffle(items)
    elif order != "collected":
        raise pytest.UsageError(f"--test-order: unknown order {order!r}")
