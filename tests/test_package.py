import shapelift


def test_all_is_sorted_and_unique():
    names = shapelift.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from shapelift import *", namespace)
    missing = [name for name in shapelift.__all__ if name not in namespace]
    assert not missing
