import bbsolve


def test_every_exported_name_imports_once():
    assert len(bbsolve.__all__) == len(set(bbsolve.__all__))
    namespace = {}
    exec("from bbsolve import *", namespace)
    assert set(bbsolve.__all__) <= namespace.keys()
