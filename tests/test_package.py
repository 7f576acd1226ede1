"""The package's export list."""
import ssnorm


def test_export_list_resolves_without_duplicates():
    assert len(ssnorm.__all__) == len(set(ssnorm.__all__))
    missing = [name for name in ssnorm.__all__ if not hasattr(ssnorm, name)]
    assert missing == []
    namespace = {}
    exec("from ssnorm import *", namespace)
    assert set(ssnorm.__all__) <= set(namespace)
