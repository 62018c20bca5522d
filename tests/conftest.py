import pytest

from subharnack.semigroup import (_gauss_quad_memo, _log_subordinated_apply_memo,
                                  _subordinated_apply_memo)
from subharnack.subordinator import (_exp_moment_memo, _law_rule,
                                     _standard_density, _theta_rule)

# every memo of the library: a run after clearing them recomputes each
# value instead of reading an earlier run's values back
MEMOS = (_standard_density, _theta_rule, _law_rule, _exp_moment_memo,
         _gauss_quad_memo, _subordinated_apply_memo, _log_subordinated_apply_memo)


@pytest.fixture
def clear_memos():
    """A function that empties every memo of the library."""
    def clear():
        for memo in MEMOS:
            memo.cache_clear()
    return clear
