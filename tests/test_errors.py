from normlab import analysis, bitarith, errors, generators, grayorder, pnormal, seqcore


def test_one_error_hierarchy():
    assert generators.DomainError is bitarith.DomainError is pnormal.DomainError is errors.DomainError
    assert analysis.BudgetError is grayorder.BudgetError is seqcore.BudgetError is errors.BudgetError
    assert pnormal.DataQualityError is errors.DataQualityError
    for exc in (errors.DomainError, errors.BudgetError, errors.DataQualityError):
        assert issubclass(exc, ValueError)
