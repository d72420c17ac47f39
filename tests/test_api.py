import qcycle


def test_public_names_resolve():
    # a stale __all__ entry otherwise fails only on `from qcycle import *`
    missing = [name for name in qcycle.__all__ if not hasattr(qcycle, name)]
    assert missing == []
    assert len(set(qcycle.__all__)) == len(qcycle.__all__)
