import hroa


def test_every_public_name_resolves():
    assert [name for name in hroa.__all__ if not hasattr(hroa, name)] == []
    scope: dict = {}
    exec("from hroa import *", scope)
    assert set(hroa.__all__) <= set(scope)
