"""Determinism rule family (RPR001-RPR004)."""

import pytest


class TestGlobalRandom:
    def test_import_random_flagged(self, codes_in):
        assert "RPR001" in codes_in("import random\n")

    def test_from_random_import_flagged(self, codes_in):
        assert "RPR001" in codes_in("from random import shuffle\n")

    def test_random_call_flagged(self, codes_in):
        assert "RPR001" in codes_in("value = random.random()\n")

    def test_numpy_default_rng_not_confused_with_random(self, codes_in):
        assert codes_in(
            "import numpy as np\nrng = np.random.default_rng(7)\n"
        ) == []


class TestWallClock:
    def test_time_time_flagged(self, codes_in):
        assert "RPR002" in codes_in("import time\nstamp = time.time()\n")

    def test_datetime_now_flagged(self, codes_in):
        assert "RPR002" in codes_in(
            "import datetime\nstamp = datetime.datetime.now()\n"
        )

    def test_perf_counter_allowed(self, codes_in):
        # perf_counter times the real execution (progress meters), which
        # is legitimate; it must not be flagged.
        assert codes_in("import time\nstart = time.perf_counter()\n") == []

    def test_monotonic_allowed(self, codes_in):
        assert codes_in("import time\nstart = time.monotonic()\n") == []

    # Module-level import aliases resolve to the clock they bind.
    def test_aliased_module_in_a_key_payload_flagged(self, codes_in):
        assert "RPR002" in codes_in(
            "import time as _time\n"
            "def journal_keys(specs):\n"
            "    return [{'spec': s, 't': _time.time()} for s in specs]\n"
        )

    def test_from_import_alias_in_a_key_payload_flagged(self, codes_in):
        assert "RPR002" in codes_in(
            "from time import time as now\n"
            "def journal_keys(specs):\n"
            "    return [{'spec': s, 't': now()} for s in specs]\n"
        )

    def test_aliased_module_in_an_export_flagged(self, codes_in):
        assert "RPR002" in codes_in(
            "import json\n"
            "import time as _time\n"
            "def export_json(records):\n"
            "    document = {'records': records, 'at': _time.time()}\n"
            "    return json.dumps(document)\n"
        )

    def test_aliased_datetime_flagged(self, codes_in):
        assert "RPR002" in codes_in(
            "import datetime as dt\nstamp = dt.datetime.now()\n"
        )

    def test_aliased_perf_counter_allowed(self, codes_in):
        assert codes_in(
            "import time as _time\n"
            "from time import perf_counter as clock\n"
            "start = _time.perf_counter() + clock()\n"
        ) == []


class TestSeededRng:
    def test_unseeded_default_rng_flagged(self, codes_in):
        assert "RPR003" in codes_in(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )

    def test_none_seed_flagged(self, codes_in):
        assert "RPR003" in codes_in(
            "import numpy as np\nrng = np.random.default_rng(None)\n"
        )

    def test_explicit_seed_clean(self, codes_in):
        assert codes_in(
            "import numpy as np\nrng = np.random.default_rng(seed)\n"
        ) == []

    def test_keyword_seed_clean(self, codes_in):
        assert codes_in(
            "import numpy as np\nrng = np.random.default_rng(seed=3)\n"
        ) == []

    def test_allowed_under_tests_tree(self, codes_in):
        snippet = "import numpy as np\nrng = np.random.default_rng()\n"
        assert codes_in(snippet, filename="tests/fake/test_x.py") == []


class TestSetIteration:
    def test_for_over_set_literal_flagged(self, codes_in):
        assert "RPR004" in codes_in("for x in {1, 2, 3}:\n    pass\n")

    def test_for_over_set_call_flagged(self, codes_in):
        assert "RPR004" in codes_in("for x in set(items):\n    pass\n")

    def test_comprehension_over_set_flagged(self, codes_in):
        assert "RPR004" in codes_in("out = [x for x in {1, 2}]\n")

    def test_list_of_set_flagged(self, codes_in):
        assert "RPR004" in codes_in("order = list(set(items))\n")

    def test_enumerate_of_set_in_comprehension_flagged(self, codes_in):
        snippet = (
            "name_rank_of = "
            "{name: r for r, name in enumerate(set(task_names))}\n"
        )
        assert "RPR004" in codes_in(snippet)

    @pytest.mark.parametrize(
        "wrapped",
        ["zip(ids, set(names))", "map(str, set(names))",
         "filter(None, {1, 2})", "iter(frozenset(names))"],
    )
    def test_order_preserving_wrappers_flagged(self, codes_in, wrapped):
        assert "RPR004" in codes_in(f"for x in {wrapped}:\n    pass\n")
        assert "RPR004" in codes_in(f"order = list({wrapped})\n")

    def test_aliased_set_constructor_flagged(self, codes_in):
        # A set constructor bound to another name still builds a set.
        assert "RPR004" in codes_in(
            "_distinct = set\n"
            "def result_to_payload(result):\n"
            "    return {'tasks': list(_distinct(result.per_task_released))}\n"
        )

    def test_sorted_set_is_clean(self, codes_in):
        assert codes_in("for x in sorted(set(items)):\n    pass\n") == []

    def test_enumerate_of_sorted_set_is_clean(self, codes_in):
        snippet = "for r, x in enumerate(sorted(set(items))):\n    pass\n"
        assert codes_in(snippet) == []

    def test_plain_list_iteration_clean(self, codes_in):
        assert codes_in("for x in [1, 2, 3]:\n    pass\n") == []
