import qhckit


def test_star_import_matches_all():
    # A name left in __all__ after its definition is deleted fails the import.
    exec("from qhckit import *", {})
    assert len(qhckit.__all__) == len(set(qhckit.__all__))
