import types

import levydam


def test_star_import_binds_no_modules():
    ns = {}
    exec("from levydam import *", ns)
    modules = [k for k, v in ns.items() if isinstance(v, types.ModuleType)]
    assert modules == []


def test_all_names_exist_and_are_unique():
    assert len(set(levydam.__all__)) == len(levydam.__all__)
    for name in levydam.__all__:
        assert hasattr(levydam, name), name
