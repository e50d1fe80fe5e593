import itertools

import inputs

APPS = [f"app{i}" for i in range(11)]


def _take(seed, client, n=500):
    return list(itertools.islice(inputs.service_sequence(seed, client), n))


def test_service_pool_and_order_are_a_pure_function_of_the_seed():
    assert inputs.service_pools(3, APPS) == inputs.service_pools(3, APPS)
    assert inputs.service_pools(3, APPS) != inputs.service_pools(4, APPS)
    for client in range(inputs.SERVICE_CLIENTS):
        assert _take(3, client) == _take(3, client)
        assert _take(3, client) != _take(4, client)


def test_clients_never_share_a_spec():
    pools = inputs.service_pools(9, APPS)
    assert len(pools) == inputs.SERVICE_CLIENTS
    assert not set(pools[0]) & set(pools[1])
    assert all(len(set(p)) == len(p) for p in pools)


def test_each_client_sends_a_new_spec_every_cold_every_cycles():
    seq = _take(5, 0, 1200)
    seen = set()
    for i, idx in enumerate(seq):
        assert (idx not in seen) == (i % inputs.SERVICE_COLD_EVERY == 0)
        seen.add(idx)


def test_batch_order_is_seeded_and_covers_every_item_each_pass():
    items = list(range(20))
    a = list(itertools.islice(inputs.shuffled_passes(items, 1), 60))
    assert a == list(itertools.islice(inputs.shuffled_passes(items, 1), 60))
    assert a != list(itertools.islice(inputs.shuffled_passes(items, 2), 60))
    for p in range(3):
        assert sorted(a[20 * p:20 * (p + 1)]) == items
