import tcm_entangle


def test_every_export_resolves():
    assert len(set(tcm_entangle.__all__)) == len(tcm_entangle.__all__)
    assert [n for n in tcm_entangle.__all__ if not hasattr(tcm_entangle, n)] == []


def test_star_import():
    namespace = {}
    exec("from tcm_entangle import *", namespace)
    assert set(tcm_entangle.__all__) <= set(namespace)
