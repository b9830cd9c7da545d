"""Run the acceptance gate after every other test.

Its retraining criteria take most of the suite's wall time, so running
them last reports the fast unit tests first.
"""


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")
